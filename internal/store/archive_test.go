package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/vclock"
)

// openLogStore opens a store with the given log live window and an
// execution log attached, Load already done.
func openLogStore(t *testing.T, dir string, window int) (*Store, *Log) {
	t.Helper()
	s, err := Open(dir, Options{LogLiveWindow: window})
	if err != nil {
		t.Fatal(err)
	}
	lg := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	return s, lg
}

// appendTicks appends n log entries spread over four instances, with a
// tagged detail so histories from different rounds are distinguishable.
func appendTicks(t *testing.T, lg *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		_, err := lg.Append(LogEntry{
			Instance: fmt.Sprintf("i%d", i%4),
			Kind:     "tick",
			Detail:   fmt.Sprintf("%s-%d", tag, i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// logJSON renders the full stitched log for bytewise comparison.
func logJSON(t *testing.T, lg *Log) []byte {
	t.Helper()
	data, err := json.Marshal(lg.All())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// archiveFiles lists the archive file names in dir, sorted.
func archiveFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, name := range listNames(t, dir) {
		if strings.HasPrefix(name, "archive.") && strings.HasSuffix(name, ".jsonl") {
			out = append(out, name)
		}
	}
	return out
}

// TestNegativeLogLiveWindowRejected: every fold archives by reference,
// so a negative live window is a configuration error at open.
func TestNegativeLogLiveWindowRejected(t *testing.T) {
	s, err := Open(t.TempDir(), Options{LogLiveWindow: -1})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a negative LogLiveWindow")
	}
}

// TestFoldArchivesLogHistory is the tentpole acceptance test: with a
// small live window, compaction spills old log history into archive
// files carried by reference — the snapshot stays bounded, every read
// path still sees full history in order, and a reopen replays only the
// live window plus refs while reading back byte-identically.
func TestFoldArchivesLogHistory(t *testing.T) {
	dir := t.TempDir()
	s, lg := openLogStore(t, dir, 10)
	appendTicks(t, lg, 50, "a")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if got := st.Logs["execlog"]; got.Live != 10 || got.Archived != 40 || got.Archives != 1 {
		t.Fatalf("hot/cold split after compact = %+v, want {10 40 1}", got)
	}
	if st.Engine.ArchivesWritten != 1 || st.Engine.Archives != 1 {
		t.Fatalf("archive counters = written %d, on disk %d, want 1/1", st.Engine.ArchivesWritten, st.Engine.Archives)
	}
	if got := archiveFiles(t, dir); len(got) != 1 || got[0] != "archive.000001.jsonl" {
		t.Fatalf("archive files = %v, want [archive.000001.jsonl]", got)
	}

	// Full history in order, across the cold/live seam.
	all := lg.All()
	if len(all) != 50 {
		t.Fatalf("All() = %d entries, want 50", len(all))
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("All()[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	// Per-instance reads stitch archived history too: i0 got ticks
	// 0,4,...,48 — 13 of the 50.
	byInst := lg.ByInstance("i0")
	if len(byInst) != 13 {
		t.Fatalf("ByInstance(i0) = %d entries, want 13", len(byInst))
	}
	if byInst[0].Detail != "a-0" || byInst[12].Detail != "a-48" {
		t.Fatalf("ByInstance(i0) endpoints = %q, %q", byInst[0].Detail, byInst[12].Detail)
	}

	// A second round: the old archive is carried forward by reference
	// (not rewritten), a new one holds the next spill.
	appendTicks(t, lg, 30, "b")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Logs["execlog"]; got.Live != 10 || got.Archived != 70 || got.Archives != 2 {
		t.Fatalf("hot/cold split after 2nd compact = %+v, want {10 70 2}", got)
	}
	before := logJSON(t, lg)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, lg2 := openLogStore(t, dir, 10)
	defer s2.Close()
	rs := s2.Stats().Engine.Replay
	if rs.ArchiveRefs != 2 {
		t.Fatalf("reopen adopted %d archive refs, want 2", rs.ArchiveRefs)
	}
	if streamed := rs.SnapshotEntries + rs.TailEntries; streamed > 15 {
		t.Fatalf("reopen streamed %d entries — replay not bounded by the live window", streamed)
	}
	if lg2.Len() != 80 {
		t.Fatalf("reopened Len = %d, want 80", lg2.Len())
	}
	if after := logJSON(t, lg2); !bytes.Equal(before, after) {
		t.Fatal("full log read diverged across reopen")
	}
	// The paged cursor walks the same history.
	var paged []LogEntry
	after := uint64(0)
	for {
		page, err := lg2.Page(after, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		paged = append(paged, page...)
		after = page[len(page)-1].Seq
	}
	pagedJSON, err := json.Marshal(paged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, pagedJSON) {
		t.Fatal("paged read diverged from full read")
	}
	// Appends continue above all archived history.
	seq, err := lg2.Append(LogEntry{Instance: "i0", Kind: "tick", Detail: "post"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 81 {
		t.Fatalf("post-reopen Append seq = %d, want 81", seq)
	}
}

// TestArchiveCrashBeforeInstall simulates a crash in the window where
// a fold has installed an archive file but not yet the snapshot that
// references it: the next open must delete the unreferenced archive
// and lose no history.
func TestArchiveCrashBeforeInstall(t *testing.T) {
	dir := t.TempDir()
	s, lg := openLogStore(t, dir, 5)
	appendTicks(t, lg, 30, "a")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	before := logJSON(t, lg)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crashed fold's archive: a real archive file with a number no
	// installed snapshot references.
	data, err := os.ReadFile(filepath.Join(dir, "archive.000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "archive.000007.jsonl")
	if err := os.WriteFile(orphan, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, lg2 := openLogStore(t, dir, 5)
	defer s2.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan archive still on disk after open (stat err %v)", err)
	}
	est := s2.Stats().Engine
	if est.OrphanArchives != 1 {
		t.Fatalf("OrphanArchives = %d, want 1", est.OrphanArchives)
	}
	if est.Archives != 1 {
		t.Fatalf("Archives = %d, want 1 (the referenced one must survive)", est.Archives)
	}
	if after := logJSON(t, lg2); !bytes.Equal(before, after) {
		t.Fatal("history diverged after orphan cleanup")
	}
}

// TestMissingReferencedArchive: an archive a snapshot references is
// load-bearing history — if it is missing or resized, open must fail
// with corruption rather than silently dropping the cold log.
func TestMissingReferencedArchive(t *testing.T) {
	damage := map[string]func(t *testing.T, path string){
		"deleted": func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			if err := os.Truncate(path, 10); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakIt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, lg := openLogStore(t, dir, 5)
			appendTicks(t, lg, 30, "a")
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			breakIt(t, filepath.Join(dir, "archive.000001.jsonl"))

			s2, err := Open(dir, Options{LogLiveWindow: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			MustLog(s2, "execlog")
			if err := s2.Load(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load with %s archive = %v, want ErrCorrupt", name, err)
			}
		})
	}
}

// TestArchiveCRCCorruption: bit rot inside an archive (same length, so
// the open-time existence check passes) surfaces as ErrCorrupt when
// the cold history is actually read.
func TestArchiveCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	s, lg := openLogStore(t, dir, 5)
	appendTicks(t, lg, 40, "payload")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "archive.000001.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one character inside an entry's detail string: the JSON stays
	// well formed and the length unchanged — only the checksum can tell.
	i := bytes.Index(data, []byte("payload"))
	if i < 0 {
		t.Fatal("no payload byte to corrupt")
	}
	data[i] = 'q'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, lg2 := openLogStore(t, dir, 5) // lazy verification: open succeeds
	defer s2.Close()
	if _, err := lg2.Page(0, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Page over corrupt archive = %v, want ErrCorrupt", err)
	}
}

// TestFoldPolicyMinInterval: a seal poking the folder before the
// configured spacing has elapsed is deferred, not folded; once the
// interval passes the same poke folds.
func TestFoldPolicyMinInterval(t *testing.T) {
	fake := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	dir := t.TempDir()
	s, err := Open(dir, Options{FoldMinInterval: time.Minute, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lg := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}

	appendTicks(t, lg, 10, "a")
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.fold(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.Folds; got != 1 {
		t.Fatalf("first fold: Folds = %d, want 1", got)
	}

	appendTicks(t, lg, 10, "b")
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.fold(false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Engine.Folds != 1 || st.FoldPolicy.SkippedInterval != 1 {
		t.Fatalf("fold inside interval: Folds = %d, SkippedInterval = %d, want 1, 1",
			st.Engine.Folds, st.FoldPolicy.SkippedInterval)
	}

	fake.Advance(2 * time.Minute)
	if err := s.fold(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.Folds; got != 2 {
		t.Fatalf("fold after interval: Folds = %d, want 2", got)
	}
}

// TestFoldPolicyMinGarbage: a sealed backlog that is a sliver of the
// installed snapshot is not worth a rewrite — the background fold
// skips it — but Compact is an operator order and folds anyway.
func TestFoldPolicyMinGarbage(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FoldMinGarbage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		if err := repo.Put(fmt.Sprintf("k%03d", i), doc{Title: strings.Repeat("x", 64), Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	// No snapshot installed yet: the backlog is 100% garbage, folds.
	if err := s.fold(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.Folds; got != 1 {
		t.Fatalf("first fold: Folds = %d, want 1", got)
	}

	if err := repo.Put("k000", doc{Title: "tiny", Rev: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := s.engine.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.fold(false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Engine.Folds != 1 || st.FoldPolicy.SkippedGarbage != 1 {
		t.Fatalf("fold below garbage floor: Folds = %d, SkippedGarbage = %d, want 1, 1",
			st.Engine.Folds, st.FoldPolicy.SkippedGarbage)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Engine.Folds != 2 || st.FoldPolicy.Forced != 1 {
		t.Fatalf("Compact: Folds = %d, Forced = %d, want 2, 1", st.Engine.Folds, st.FoldPolicy.Forced)
	}
	got, ok := repo.Get("k000")
	if !ok || got.Rev != 1000 {
		t.Fatalf("k000 after forced fold = %+v, %t", got, ok)
	}
}

// TestStoreLoadParallelEquivalence: replaying the same journal with
// one worker and with eight must produce identical state — per-key
// entries share a lane, so parallelism never reorders what matters.
// The definitions-journal counterpart of Instances.ReplayParallel.
func TestStoreLoadParallelEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	docs := MustRepo[doc](s, "docs")
	misc := MustRepo[doc](s, "misc")
	lg := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := docs.Put(fmt.Sprintf("k%02d", i%50), doc{Title: "v", Rev: i}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := misc.Put(fmt.Sprintf("m%02d", i%20), doc{Rev: i}); err != nil {
				t.Fatal(err)
			}
		}
		if i%13 == 0 {
			if err := docs.Delete(fmt.Sprintf("k%02d", (i+3)%50)); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			if _, err := lg.Append(LogEntry{Instance: fmt.Sprintf("i%d", i%10), Kind: "t", Detail: fmt.Sprint(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	state := func(workers int) []byte {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		docs := MustRepo[doc](s, "docs")
		misc := MustRepo[doc](s, "misc")
		lg := MustLog(s, "execlog")
		if err := s.LoadParallel(workers); err != nil {
			t.Fatal(err)
		}
		dump := func(r *Repo[doc]) map[string]doc {
			out := make(map[string]doc)
			for _, id := range r.IDs() {
				v, _ := r.Get(id)
				out[id] = v
			}
			return out
		}
		data, err := json.Marshal(struct {
			Docs map[string]doc
			Misc map[string]doc
			Log  []LogEntry
		}{dump(docs), dump(misc), lg.All()})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sequential := state(1)
	parallel := state(8)
	if !bytes.Equal(sequential, parallel) {
		t.Fatal("parallel replay state diverged from sequential")
	}
}

// TestRepoReadStats: Get traffic is counted per shard and the sampled
// space-saving sketch surfaces the dominant keys.
func TestRepoReadStats(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	repo := MustRepo[doc](s, "docs")
	if err := repo.Put("hot", doc{Title: "h"}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Put("warm", doc{Title: "w"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		repo.Get("hot")
	}
	for i := 0; i < 8; i++ {
		repo.Get("warm")
	}
	for i := 0; i < 10; i++ {
		repo.Get("absent")
	}

	st, ok := s.Stats().Reads["docs"]
	if !ok {
		t.Fatal("no read stats for docs")
	}
	if st.Gets != 98 || st.Hits != 88 || st.Misses != 10 {
		t.Fatalf("read stats = %+v, want gets 98, hits 88, misses 10", st)
	}
	var hotCount uint64
	for _, hk := range st.HotKeys {
		if hk.ID == "hot" {
			hotCount = hk.Count
		}
	}
	if hotCount == 0 {
		t.Fatalf("hot key missing from sketch: %+v", st.HotKeys)
	}
	if st.HotKeys[0].ID != "hot" {
		t.Fatalf("dominant key = %q, want hot (%+v)", st.HotKeys[0].ID, st.HotKeys)
	}
}
