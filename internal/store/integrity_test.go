package store

// The corruption-injection matrix for the end-to-end integrity layer:
// one flipped bit at every position the recovery rules distinguish —
// active-file tail, active-file interior, sealed segment, snapshot,
// archive — against both the store journal and the instance journal,
// plus quarantine mode, the background scrubber, offline Fsck and the
// legacy (unframed) compatibility path.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// flipByte XORs one byte of the file at off (negative = from the end),
// simulating a single spot of bit rot.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	if off < 0 || off >= int64(len(data)) {
		t.Fatalf("flip offset %d out of range (file is %d bytes)", off, len(data))
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// putDocs writes n sequentially numbered docs through the repo.
func putDocs(t *testing.T, repo *Repo[doc], n, from int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := repo.Put(fmt.Sprintf("k%02d", i), doc{Title: strings.Repeat("x", 30), Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
}

// openIntegrityStore opens + loads a store with the given integrity
// options, returning the Load error instead of failing, so corruption
// verdicts can be asserted.
func openIntegrityStore(t *testing.T, dir string, integ IntegrityOptions) (*Store, *Repo[doc], error) {
	t.Helper()
	s, err := Open(dir, Options{Integrity: integ})
	if err != nil {
		t.Fatal(err)
	}
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, repo, nil
}

// TestTornActiveTailRecovers flips a bit inside the last record of the
// active file: an invalid suffix is a crash tail, so the open succeeds,
// drops exactly that record, counts the recovery, and appends continue
// on a clean boundary.
func TestTornActiveTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 5, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, journalName), -5)

	s2, repo2, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatalf("torn tail failed the open: %v", err)
	}
	defer s2.Close()
	if _, ok := repo2.Get("k03"); !ok {
		t.Fatal("record before the torn tail lost")
	}
	if _, ok := repo2.Get("k04"); ok {
		t.Fatal("the torn record replayed despite its broken CRC")
	}
	integ := s2.Stats().Engine.Integrity
	if !integ.Framing || integ.TornTails != 1 || integ.TornTailBytes == 0 {
		t.Fatalf("torn-tail accounting = %+v, want framing on, 1 torn tail", integ)
	}
	if integ.CorruptFiles != 0 {
		t.Fatalf("a recoverable tail counted as corruption: %+v", integ)
	}
	// The truncated file accepts appends and survives another cycle.
	putDocs(t, repo2, 1, 10)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, repo3, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if _, ok := repo3.Get("k10"); !ok {
		t.Fatal("append after torn-tail recovery lost")
	}
}

// TestActiveInteriorCorruptionFailsOpen flips a bit in the first record
// while later records are valid: that is mid-file damage to committed
// history, which must fail the open with positional detail — never be
// silently truncated.
func TestActiveInteriorCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 5, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, journalName), 20)

	_, _, err = openIntegrityStore(t, dir, IntegrityOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior corruption opened as %v, want ErrCorrupt", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("corruption verdict carries no positional detail: %v", err)
	}
	if filepath.Base(ce.Path) != journalName || ce.Line != 1 || ce.Offset != 0 {
		t.Fatalf("corruption located at %s line %d offset %d, want %s line 1 offset 0",
			filepath.Base(ce.Path), ce.Line, ce.Offset, journalName)
	}
}

// TestSealedSegmentCorruptionFailsOpen flips a bit mid-way through a
// sealed (footer-carrying) segment: sealed files are strict, so the
// open fails with the segment named.
func TestSealedSegmentCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 5, 0)
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 3, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sealedPath := filepath.Join(dir, sealedName(1))
	if _, err := os.Stat(sealedPath); err != nil {
		t.Fatal(err)
	}
	flipByte(t, sealedPath, 40)

	_, _, err = openIntegrityStore(t, dir, IntegrityOptions{})
	var ce *CorruptionError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("sealed-segment corruption opened as %v, want CorruptionError", err)
	}
	if filepath.Base(ce.Path) != sealedName(1) {
		t.Fatalf("corruption located in %s, want %s", filepath.Base(ce.Path), sealedName(1))
	}
}

// TestSnapshotCorruptionFailsOpen flips a bit in an installed snapshot:
// snapshots were fsynced before their rename, so any damage is bit rot
// and the open must refuse.
func TestSnapshotCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 8, 0)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapName(1))
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatal(err)
	}
	flipByte(t, snapPath, 60)

	_, _, err = openIntegrityStore(t, dir, IntegrityOptions{})
	var ce *CorruptionError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("snapshot corruption opened as %v, want CorruptionError", err)
	}
	if filepath.Base(ce.Path) != snapName(1) {
		t.Fatalf("corruption located in %s, want %s", filepath.Base(ce.Path), snapName(1))
	}
}

// TestQuarantineServesSurvivingHistory repeats the sealed-segment flip
// with quarantine on: the open succeeds, the damaged file moves aside
// with a .quarantined suffix, the detection is reported through
// OnCorrupt, and the surviving (active-file) history serves.
func TestQuarantineServesSurvivingHistory(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 5, 0)
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 3, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, sealedName(1)), 40)

	var seen []CorruptFile
	s2, repo2, err := openIntegrityStore(t, dir, IntegrityOptions{
		Quarantine: true,
		OnCorrupt:  func(cf CorruptFile) { seen = append(seen, cf) },
	})
	if err != nil {
		t.Fatalf("quarantine open failed: %v", err)
	}
	defer s2.Close()
	if len(seen) != 1 || !seen[0].Quarantined || seen[0].Source != "open" {
		t.Fatalf("OnCorrupt saw %+v, want one quarantined open-time detection", seen)
	}
	if filepath.Base(seen[0].Path) != sealedName(1) {
		t.Fatalf("quarantined %s, want %s", filepath.Base(seen[0].Path), sealedName(1))
	}
	if _, err := os.Stat(filepath.Join(dir, sealedName(1)) + ".quarantined"); err != nil {
		t.Fatalf("damaged file not moved aside: %v", err)
	}
	// The sealed segment's records are gone; the active file's survive.
	if _, ok := repo2.Get("k00"); ok {
		t.Fatal("record from the quarantined segment replayed")
	}
	if _, ok := repo2.Get("k06"); !ok {
		t.Fatal("surviving active-file record lost")
	}
	integ := s2.Stats().Engine.Integrity
	if integ.QuarantinedFiles != 1 || integ.CorruptFiles != 1 {
		t.Fatalf("quarantine accounting = %+v, want 1/1", integ)
	}
}

// TestQuarantinedSnapshotKeepsArchives corrupts the snapshot in a
// directory that also holds a referenced archive: quarantining the
// snapshot loses the references, but the archive bytes must NOT be
// collected as orphans — they may be the only surviving copy.
func TestQuarantinedSnapshotKeepsArchives(t *testing.T) {
	dir := t.TempDir()
	s, lg := openLogStore(t, dir, 10)
	appendTicks(t, lg, 50, "a")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, snapName(1)), 60)

	s2, err := Open(dir, Options{LogLiveWindow: 10, Integrity: IntegrityOptions{Quarantine: true}})
	if err != nil {
		t.Fatal(err)
	}
	MustLog(s2, "execlog")
	if err := s2.Load(); err != nil {
		t.Fatalf("quarantine open failed: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(filepath.Join(dir, archiveName(1))); err != nil {
		t.Fatalf("archive collected as orphan after snapshot quarantine: %v", err)
	}
}

// TestScrubDetectsSealedSegmentRot corrupts a sealed segment while the
// store is serving: the next scrub tick finds it, counts it, stamps
// LastError and reports through OnCorrupt without quarantining (repair
// is an offline decision).
func TestScrubDetectsSealedSegmentRot(t *testing.T) {
	dir := t.TempDir()
	var seen []CorruptFile
	s, err := Open(dir, Options{Integrity: IntegrityOptions{
		OnCorrupt: func(cf CorruptFile) { seen = append(seen, cf) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putDocs(t, repo, 5, 0)
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 2, 5)

	if res := s.Scrub(1 << 30); res.Corrupt != 0 || res.Files == 0 || !res.PassCompleted {
		t.Fatalf("clean scrub = %+v, want a completed pass with no corruption", res)
	}
	flipByte(t, filepath.Join(dir, sealedName(1)), 40)
	res := s.Scrub(1 << 30)
	if res.Corrupt != 1 {
		t.Fatalf("scrub over rotted segment = %+v, want 1 corrupt", res)
	}
	if len(seen) != 1 || seen[0].Source != "scrub" || seen[0].Quarantined {
		t.Fatalf("OnCorrupt saw %+v, want one non-quarantined scrub detection", seen)
	}
	integ := s.Stats().Engine.Integrity
	if integ.CorruptFiles != 1 || integ.LastError == "" || integ.ScrubFiles == 0 {
		t.Fatalf("scrub accounting = %+v", integ)
	}
	// Sealed file still in place: scrubbing detects, never moves.
	if _, err := os.Stat(filepath.Join(dir, sealedName(1))); err != nil {
		t.Fatalf("scrub moved the damaged file: %v", err)
	}
}

// TestScrubDetectsArchiveRot flips a bit in a referenced archive. The
// open's cheap existence+length check passes — full archive CRCs are
// the scrubber's job, which must fail the file against the checksum the
// snapshot recorded.
func TestScrubDetectsArchiveRot(t *testing.T) {
	dir := t.TempDir()
	s, lg := openLogStore(t, dir, 10)
	appendTicks(t, lg, 50, "a")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, archiveName(1)), 40)

	s2, lg2 := openLogStore(t, dir, 10)
	defer s2.Close()
	_ = lg2
	res := s2.Scrub(1 << 30)
	if res.Corrupt != 1 || !res.PassCompleted {
		t.Fatalf("scrub over rotted archive = %+v, want 1 corrupt in a completed pass", res)
	}
	integ := s2.Stats().Engine.Integrity
	if integ.CorruptFiles != 1 || !strings.Contains(integ.LastError, "archive") {
		t.Fatalf("archive-rot accounting = %+v", integ)
	}
}

// TestScrubBudgetBoundsTickIO verifies a tick stops at its byte budget
// and the cursor-resumed pass still covers the whole generation.
func TestScrubBudgetBoundsTickIO(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		putDocs(t, repo, 10, i*10)
		if err := s.engine.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Scrub(1) // budget of one byte: exactly one file per tick
	if first.Files != 1 || first.PassCompleted {
		t.Fatalf("budgeted tick = %+v, want 1 file, pass not complete", first)
	}
	total := first.Files
	for i := 0; i < 10; i++ {
		res := s.Scrub(1)
		total += res.Files
		if res.PassCompleted {
			break
		}
	}
	if total != 3 {
		t.Fatalf("budgeted pass covered %d files, want 3 sealed segments", total)
	}
}

// TestScrubLoopRunsOnInterval wires the background scrubber through
// Options.Integrity.ScrubInterval and waits for a completed pass.
func TestScrubLoopRunsOnInterval(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{ScrubInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putDocs(t, repo, 5, 0)
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Engine.Integrity.ScrubPasses == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never completed a pass: %+v", s.Stats().Engine.Integrity)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// legacyLines returns n bare JSONL journal records of repo and op, one
// per id prefix+NN — the pre-framing on-disk format, byte for byte, as
// journals written before CRC envelopes existed hold it.
func legacyLines(n int, repo, op, prefix string, data func(i int) string) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `{"seq":%d,"repo":%q,"op":%q,"id":"%s%02d","data":%s}`+"\n",
			i+1, repo, op, prefix, i, data(i))
	}
	return b.Bytes()
}

// TestLegacyUnframedJournalOpens writes a pre-upgrade journal (bare
// JSONL, no CRCs) and opens it: the version sniff replays it
// unchanged, new appends are framed, and the mixed file still seals
// under a correct whole-file footer.
func TestLegacyUnframedJournalOpens(t *testing.T) {
	dir := t.TempDir()
	legacy := legacyLines(5, "docs", "put", "k", func(i int) string {
		return fmt.Sprintf(`{"title":"legacy","rev":%d}`, i)
	})
	if err := os.WriteFile(filepath.Join(dir, journalName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatalf("legacy journal failed to open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if got, ok := repo.Get(fmt.Sprintf("k%02d", i)); !ok || got.Rev != i {
			t.Fatalf("legacy record k%02d = %+v, %t", i, got, ok)
		}
	}
	putDocs(t, repo, 2, 5) // framed lines appended after the legacy ones
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The sealed mixed file verifies strictly, footer included.
	fr, err := replayJournalFile(filepath.Join(dir, sealedName(1)), replaySealed, nil)
	if err != nil {
		t.Fatalf("mixed legacy+framed sealed segment failed verification: %v", err)
	}
	if fr.n != 7 || fr.footer == nil {
		t.Fatalf("mixed segment replayed %d records, footer %v, want 7 with footer", fr.n, fr.footer)
	}
	s2, repo2, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := repo2.Get("k06"); !ok {
		t.Fatal("framed record appended to legacy file lost on reopen")
	}
}

// TestLegacyUnframedJournalOpensInstances is the legacy-read case for
// the instance journal: a pre-upgrade bare-JSONL file replays every
// record, framed appends follow it, the mixed file seals under a
// verified footer, and a reopen replays old and new records alike.
func TestLegacyUnframedJournalOpensInstances(t *testing.T) {
	dir := t.TempDir()
	legacy := legacyLines(5, "instances", "append", "li-", func(i int) string {
		return fmt.Sprintf(`{"op":"advance","n":%d}`, i)
	})
	if err := os.WriteFile(filepath.Join(dir, journalName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	c, ids, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatalf("legacy instance journal failed to replay: %v", err)
	}
	if want := []string{"li-00", "li-01", "li-02", "li-03", "li-04"}; !slices.Equal(ids, want) {
		t.Fatalf("legacy replay streamed %v, want %v", ids, want)
	}
	for i := 5; i < 7; i++ {
		if err := c.Append(fmt.Sprintf("li-%02d", i), []byte(fmt.Sprintf(`{"op":"advance","n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := replayJournalFile(filepath.Join(dir, sealedName(1)), replaySealed, nil)
	if err != nil {
		t.Fatalf("mixed legacy+framed sealed segment failed verification: %v", err)
	}
	if fr.n != 7 || fr.footer == nil {
		t.Fatalf("mixed segment replayed %d records, footer %v, want 7 with footer", fr.n, fr.footer)
	}
	c2, ids, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(ids) != 7 || ids[6] != "li-06" {
		t.Fatalf("reopen replayed %v, want li-00..li-06", ids)
	}
}

// --- instance journal matrix ---

// openInstancesDir opens the collection and replays it, returning the
// replay error plus the ids streamed.
func openInstancesDir(t *testing.T, dir string, opts InstancesOptions) (*Instances, []string, error) {
	t.Helper()
	c, err := OpenInstances(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	if err := c.Replay(func(id string, data []byte) error {
		ids = append(ids, id)
		return nil
	}); err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, ids, nil
}

// seedInstances appends n records across three instance ids and closes.
func seedInstances(t *testing.T, dir string, n int, seal bool) {
	t.Helper()
	c, _, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := c.Append(fmt.Sprintf("li-%d", i%3), []byte(fmt.Sprintf(`{"op":"advance","n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		if err := c.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInstancesTornTailRecovers is the active-tail flip against the
// instance journal: the damaged last record drops, the rest replays.
func TestInstancesTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	seedInstances(t, dir, 6, false)
	flipByte(t, filepath.Join(dir, journalName), -5)

	c, ids, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatalf("torn instance tail failed the replay: %v", err)
	}
	defer c.Close()
	if len(ids) != 5 {
		t.Fatalf("replayed %d records, want 5 (torn one dropped)", len(ids))
	}
	integ := c.Stats().Integrity
	if integ.TornTails != 1 || integ.CorruptFiles != 0 {
		t.Fatalf("instance torn-tail accounting = %+v", integ)
	}
	if err := c.Append("li-0", []byte(`{"op":"x"}`)); err != nil {
		t.Fatal(err)
	}
}

// TestInstancesInteriorCorruptionFailsReplay is the mid-file flip: the
// instance journal refuses with positional detail.
func TestInstancesInteriorCorruptionFailsReplay(t *testing.T) {
	dir := t.TempDir()
	seedInstances(t, dir, 6, false)
	flipByte(t, filepath.Join(dir, journalName), 20)

	_, _, err := openInstancesDir(t, dir, InstancesOptions{})
	var ce *CorruptionError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("interior instance corruption replayed as %v, want CorruptionError", err)
	}
	if ce.Line != 1 {
		t.Fatalf("corruption located at line %d, want 1", ce.Line)
	}
}

// TestInstancesSealedCorruption flips a bit in a sealed instance
// segment: strict mode fails the replay; quarantine mode moves the file
// aside and serves the survivors.
func TestInstancesSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	seedInstances(t, dir, 6, true)
	c, _, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Append("li-9", []byte(`{"op":"tail"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, sealedName(1)), 40)

	_, _, err = openInstancesDir(t, dir, InstancesOptions{})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sealed instance corruption replayed as %v, want ErrCorrupt", err)
	}

	var seen []CorruptFile
	c2, ids, err := openInstancesDir(t, dir, InstancesOptions{Integrity: IntegrityOptions{
		Quarantine: true,
		OnCorrupt:  func(cf CorruptFile) { seen = append(seen, cf) },
	}})
	if err != nil {
		t.Fatalf("quarantine instance replay failed: %v", err)
	}
	defer c2.Close()
	if len(ids) != 2 {
		t.Fatalf("quarantine replay streamed %d records, want the 2 active-file survivors", len(ids))
	}
	if len(seen) != 1 || !seen[0].Quarantined {
		t.Fatalf("OnCorrupt saw %+v, want one quarantine", seen)
	}
	if integ := c2.Stats().Integrity; integ.QuarantinedFiles != 1 {
		t.Fatalf("instance quarantine accounting = %+v", integ)
	}
}

// TestInstancesSnapshotCorruption folds the instance journal into a
// snapshot, flips a bit in it, and expects the strict verdict.
func TestInstancesSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	c, _, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]byte{}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("li-%d", i%3)
		data := []byte(fmt.Sprintf(`{"op":"advance","n":%d}`, i))
		state[id] = data
		if err := c.Append(id, data); err != nil {
			t.Fatal(err)
		}
	}
	c.SetSnapshotSource(func(emit func(id string, data []byte) error) error {
		for id, data := range state {
			if err := emit(id, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, snapName(1)), 40)

	_, _, err = openInstancesDir(t, dir, InstancesOptions{})
	var ce *CorruptionError
	if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) {
		t.Fatalf("instance snapshot corruption replayed as %v, want CorruptionError", err)
	}
	if filepath.Base(ce.Path) != snapName(1) {
		t.Fatalf("corruption located in %s, want %s", filepath.Base(ce.Path), snapName(1))
	}
}

// TestInstancesScrubDetectsRot corrupts a sealed instance segment while
// the collection serves and expects the on-demand scrub to find it.
func TestInstancesScrubDetectsRot(t *testing.T) {
	dir := t.TempDir()
	seedInstances(t, dir, 6, true)
	c, _, err := openInstancesDir(t, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if res := c.Scrub(1 << 30); res.Corrupt != 0 || res.Files == 0 || !res.PassCompleted {
		t.Fatalf("clean instance scrub = %+v, want a completed pass with no corruption", res)
	}
	flipByte(t, filepath.Join(dir, sealedName(1)), 40)
	res := c.Scrub(1 << 30)
	if res.Corrupt != 1 {
		t.Fatalf("instance scrub = %+v, want 1 corrupt", res)
	}
	if integ := c.Stats().Integrity; integ.CorruptFiles != 1 || integ.LastError == "" {
		t.Fatalf("instance scrub accounting = %+v", integ)
	}
}

// --- fsck ---

// TestFsckReportsAndRepairs builds a directory with a corrupt sealed
// segment and a torn active tail. Read-only fsck reports both without
// touching the files; repair quarantines and truncates, after which the
// directory opens and a re-check is clean.
func TestFsckReportsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 5, 0)
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	putDocs(t, repo, 3, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(dir, sealedName(1)), 40)
	flipByte(t, filepath.Join(dir, journalName), -5)

	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.Corrupt != 1 || rep.Torn != 1 || rep.Repaired != 0 {
		t.Fatalf("read-only fsck = corrupt %d torn %d repaired %d clean %t, want 1/1/0/false",
			rep.Corrupt, rep.Torn, rep.Repaired, rep.Clean)
	}
	status := map[string]string{}
	for _, f := range rep.Files {
		status[f.Name] = f.Status
	}
	if status[sealedName(1)] != "corrupt" || status[journalName] != "torn" {
		t.Fatalf("fsck statuses = %v", status)
	}
	// Read-only: the files are untouched and the open still refuses.
	if _, _, err := openIntegrityStore(t, dir, IntegrityOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open after read-only fsck = %v, want ErrCorrupt", err)
	}

	rep, err = Fsck(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 2 {
		t.Fatalf("repair fsck repaired %d files, want 2 (quarantine + truncate)", rep.Repaired)
	}
	s2, repo2, err := openIntegrityStore(t, dir, IntegrityOptions{})
	if err != nil {
		t.Fatalf("open after repair failed: %v", err)
	}
	if _, ok := repo2.Get("k06"); !ok {
		t.Fatal("surviving record lost by repair")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("fsck after repair not clean: %+v", rep)
	}
}

// TestFsckCleanGeneration checks a healthy compacted directory — with a
// snapshot, an archive and an active file — verifies clean, footers
// seen, archive records counted.
func TestFsckCleanGeneration(t *testing.T) {
	dir := t.TempDir()
	s, lg := openLogStore(t, dir, 10)
	appendTicks(t, lg, 50, "a")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendTicks(t, lg, 3, "b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Corrupt != 0 || rep.Torn != 0 {
		t.Fatalf("clean generation fsck = %+v", rep)
	}
	kinds := map[string]FsckFile{}
	for _, f := range rep.Files {
		kinds[f.Kind] = f
	}
	if f := kinds["snapshot"]; f.Status != "ok" || !f.Footer {
		t.Fatalf("snapshot verdict = %+v, want ok with footer", f)
	}
	if f := kinds["archive"]; f.Status != "ok" || f.Records != 40 {
		t.Fatalf("archive verdict = %+v, want ok with 40 records", f)
	}
	if f := kinds["active"]; f.Status != "ok" || f.Records != 3 {
		t.Fatalf("active verdict = %+v, want ok with 3 records", f)
	}
	// A missing referenced archive is corruption, not staleness.
	if err := os.Remove(filepath.Join(dir, archiveName(1))); err != nil {
		t.Fatal(err)
	}
	rep, err = Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean || rep.Corrupt != 1 {
		t.Fatalf("fsck with missing archive = %+v, want 1 corrupt", rep)
	}
	found := false
	for _, f := range rep.Files {
		if f.Name == archiveName(1) && f.Status == "missing" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing archive not reported: %+v", rep.Files)
	}
}
