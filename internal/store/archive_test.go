package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/vclock"
)

// archivedLogFixture is a data dir written while logs still spilled
// into archives: a store with a 10-entry live window appended 50, then
// 30 "tick" entries (Instance i0..i3, detail "payload-a-N" and
// "payload-b-N"), compacting after each round. Its execlog holds
// archive.000001 (seqs 1-40), archive.000002 (seqs 41-70) and ten live
// entries (71-80) in snapshot.000002.
const archivedLogFixture = "testdata/archived-log"

// openLogStore opens a store on dir with an execution log attached,
// Load already done.
func openLogStore(t *testing.T, fsys FS, dir string) (*Store, *Log) {
	t.Helper()
	s := Open(dir, Options{FS: fsys})
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

// pagedJSON walks the log with a Page cursor of the given size and
// renders what it returned, for comparison with logJSON.
func pagedJSON(t *testing.T, lg *Log, limit int) []byte {
	t.Helper()
	var paged []LogEntry
	after := uint64(0)
	for {
		page, err := lg.Page(after, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Items) == 0 {
			break
		}
		paged = append(paged, page.Items...)
		after = page.Items[len(page.Items)-1].Seq
	}
	data, err := json.Marshal(paged)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// archiveFiles lists the archive file names in dir, sorted.
func archiveFiles(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	var out []string
	for _, name := range listNames(t, fsys, dir) {
		if strings.HasPrefix(name, "archive.") && strings.HasSuffix(name, ".jsonl") {
			out = append(out, name)
		}
	}
	return out
}

// TestFoldCarriesLogArchivesForward opens a data dir whose execution
// log was spilled into two archives. A fold must carry both refs
// forward unchanged and write every live entry into the snapshot —
// past the old live window too — without writing or touching an
// archive; a reopen reads back byte-identically, and appends continue
// above the archived history.
func TestFoldCarriesLogArchivesForward(t *testing.T) { eachFS(t, testFoldCarriesLogArchivesForward) }

func testFoldCarriesLogArchivesForward(t *testing.T, fsys FS, dir string) {
	copyDir(t, archivedLogFixture, fsys, dir)
	s, lg := openLogStore(t, fsys, dir)
	appendTicks(t, lg, 20, "c")
	archived := map[string][]byte{}
	for _, name := range archiveFiles(t, fsys, dir) {
		archived[name] = readFile(t, fsys, filepath.Join(dir, name))
	}
	if len(archived) != 2 {
		t.Fatalf("fixture archives = %v, want 2", archiveFiles(t, fsys, dir))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if got := st.Logs["execlog"]; got.Live != 30 || got.Archived != 70 || got.Archives != 2 {
		t.Fatalf("hot/cold split after compact = %+v, want {30 70 2}", got)
	}
	if st.Engine.ArchivesWritten != 0 || st.Engine.Archives != 2 {
		t.Fatalf("archive counters = written %d, on disk %d, want 0/2", st.Engine.ArchivesWritten, st.Engine.Archives)
	}
	if got := archiveFiles(t, fsys, dir); len(got) != 2 {
		t.Fatalf("archive files after compact = %v, want the fixture's two", got)
	}
	for name, want := range archived {
		if got := readFile(t, fsys, filepath.Join(dir, name)); !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the fold", name)
		}
	}
	before := logJSON(t, lg)
	beforePaged := pagedJSON(t, lg, 7)
	if !bytes.Equal(before, beforePaged) {
		t.Fatal("paged read diverged from full read")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, lg2 := openLogStore(t, fsys, dir)
	defer s2.Close()
	rs := s2.Stats().Engine.Replay
	if rs.ArchiveRefs != 2 {
		t.Fatalf("reopen adopted %d archive refs, want 2", rs.ArchiveRefs)
	}
	if lg2.Len() != 100 {
		t.Fatalf("reopened Len = %d, want 100", lg2.Len())
	}
	if after := logJSON(t, lg2); !bytes.Equal(before, after) {
		t.Fatal("full log read diverged across reopen")
	}
	if after := pagedJSON(t, lg2, 7); !bytes.Equal(beforePaged, after) {
		t.Fatal("paged log read diverged across reopen")
	}
	// Appends continue above all archived history.
	seq, err := lg2.Append(LogEntry{Kind: "tick", Detail: "post"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 101 {
		t.Fatalf("post-reopen Append seq = %d, want 101 (above archived seq 70)", seq)
	}
}

// TestArchiveCrashBeforeInstall simulates a crash in the window where
// a fold has installed an archive file but not yet the snapshot that
// references it: the next open must delete the unreferenced archive
// and lose no history.
func TestArchiveCrashBeforeInstall(t *testing.T) { eachFS(t, testArchiveCrashBeforeInstall) }

func testArchiveCrashBeforeInstall(t *testing.T, fsys FS, dir string) {
	copyDir(t, archivedLogFixture, fsys, dir)
	s, lg := openLogStore(t, fsys, dir)
	before := logJSON(t, lg)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crashed fold's archive: a real archive file with a number no
	// installed snapshot references.
	orphan := filepath.Join(dir, "archive.000007.jsonl")
	writeFile(t, fsys, orphan, readFile(t, fsys, filepath.Join(dir, "archive.000001.jsonl")))

	s2, lg2 := openLogStore(t, fsys, dir)
	defer s2.Close()
	if exists(fsys, orphan) {
		t.Fatal("orphan archive still on disk after open")
	}
	est := s2.Stats().Engine
	if est.OrphanArchives != 1 {
		t.Fatalf("OrphanArchives = %d, want 1", est.OrphanArchives)
	}
	if est.Archives != 2 {
		t.Fatalf("Archives = %d, want 2 (the referenced ones must survive)", est.Archives)
	}
	if after := logJSON(t, lg2); !bytes.Equal(before, after) {
		t.Fatal("history diverged after orphan cleanup")
	}
}

// TestMissingReferencedArchive: an archive a snapshot references is
// load-bearing history — if it is missing or resized, open must fail
// with corruption rather than silently dropping the cold log.
func TestMissingReferencedArchive(t *testing.T) {
	damage := map[string]func(fsys FS, path string) error{
		"deleted":   FS.Remove,
		"truncated": func(fsys FS, path string) error { return fsys.Truncate(path, 10) },
	}
	for name, breakIt := range damage {
		t.Run(name, func(t *testing.T) {
			eachFS(t, func(t *testing.T, fsys FS, dir string) {
				copyDir(t, archivedLogFixture, fsys, dir)
				if err := breakIt(fsys, filepath.Join(dir, "archive.000001.jsonl")); err != nil {
					t.Fatal(err)
				}

				s2 := Open(dir, Options{FS: fsys})
				defer s2.Close()
				MustLog(s2, "execlog")
				if err := s2.Load(); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Load with %s archive = %v, want ErrCorrupt", name, err)
				}
			})
		})
	}
}

// TestArchiveCRCCorruption: bit rot inside an archive (same length, so
// the open-time existence check passes) surfaces as ErrCorrupt when
// the cold history is actually read.
func TestArchiveCRCCorruption(t *testing.T) { eachFS(t, testArchiveCRCCorruption) }

func testArchiveCRCCorruption(t *testing.T, fsys FS, dir string) {
	copyDir(t, archivedLogFixture, fsys, dir)
	path := filepath.Join(dir, "archive.000001.jsonl")
	data := readFile(t, fsys, path)
	// Flip one character inside an entry's detail string: the JSON stays
	// well formed and the length unchanged — only the checksum can tell.
	i := bytes.Index(data, []byte("payload"))
	if i < 0 {
		t.Fatal("no payload byte to corrupt")
	}
	data[i] = 'q'
	writeFile(t, fsys, path, data)

	s2, lg2 := openLogStore(t, fsys, dir) // lazy verification: open succeeds
	defer s2.Close()
	if _, err := lg2.Page(0, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Page over corrupt archive = %v, want ErrCorrupt", err)
	}
}

// TestFoldPolicyMinInterval: a seal poking the folder before the
// configured spacing has elapsed is deferred, not folded; once the
// interval passes the same poke folds.
func TestFoldPolicyMinInterval(t *testing.T) { eachFS(t, testFoldPolicyMinInterval) }

func testFoldPolicyMinInterval(t *testing.T, fsys FS, dir string) {
	fake := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	s := Open(dir, Options{FS: fsys, FoldMinInterval: time.Minute, Clock: fake})
	defer s.Close()
	lg := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}

	appendTicks(t, lg, 10, "a")
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.runFold(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.Folds; got != 1 {
		t.Fatalf("first fold: Folds = %d, want 1", got)
	}

	appendTicks(t, lg, 10, "b")
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.runFold(false); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Engine.Folds != 1 || st.FoldPolicy.SkippedInterval != 1 {
		t.Fatalf("fold inside interval: Folds = %d, SkippedInterval = %d, want 1, 1",
			st.Engine.Folds, st.FoldPolicy.SkippedInterval)
	}

	fake.Advance(2 * time.Minute)
	if err := s.runFold(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.Folds; got != 2 {
		t.Fatalf("fold after interval: Folds = %d, want 2", got)
	}
}

// TestFoldPolicyMinGarbage: a sealed backlog that is a sliver of the
// installed snapshot is not worth a rewrite — the background fold
// skips it — but Compact is an operator order and folds anyway.
func TestFoldPolicyMinGarbage(t *testing.T) { eachFS(t, testFoldPolicyMinGarbage) }

func testFoldPolicyMinGarbage(t *testing.T, fsys FS, dir string) {
	s := Open(dir, Options{FS: fsys, FoldMinGarbage: 0.5})
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
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// No snapshot installed yet: the backlog is 100% garbage, folds.
	if err := s.runFold(false); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.Folds; got != 1 {
		t.Fatalf("first fold: Folds = %d, want 1", got)
	}

	if err := repo.Put("k000", doc{Title: "tiny", Rev: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.runFold(false); err != nil {
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
func TestStoreLoadParallelEquivalence(t *testing.T) { eachFS(t, testStoreLoadParallelEquivalence) }

func testStoreLoadParallelEquivalence(t *testing.T, fsys FS, dir string) {
	s := Open(dir, Options{FS: fsys})
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
		s := Open(dir, Options{FS: fsys})
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
	s := memStore(t, Options{})
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
