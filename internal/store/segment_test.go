package store

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openSegStore opens a store with aggressive segment rotation so tests
// hit seals without writing megabytes.
func openSegStore(t *testing.T, fsys FS, dir string, maxBytes int64) (*Store, *Repo[doc]) {
	t.Helper()
	s := Open(dir, Options{FS: fsys, SegmentMaxBytes: maxBytes})
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	return s, repo
}

// TestSegmentRotationPersistsAcrossReopen drives enough writes through
// a tiny segment bound that the active file rotates several times, and
// expects sealed segment files on disk, correct live state, and a
// faithful replay across reopen.
func TestSegmentRotationPersistsAcrossReopen(t *testing.T) {
	eachFS(t, testSegmentRotationPersistsAcrossReopen)
}

func testSegmentRotationPersistsAcrossReopen(t *testing.T, fsys FS, dir string) {
	s, repo := openSegStore(t, fsys, dir, 512)
	for i := 0; i < 40; i++ {
		if err := repo.Put(fmt.Sprintf("k%02d", i%10), doc{Title: strings.Repeat("x", 40), Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Engine.Rotations == 0 {
		t.Fatalf("no rotations despite tiny segment bound: %+v", st.Engine)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, repo2 := openSegStore(t, fsys, dir, 512)
	defer s2.Close()
	for i := 30; i < 40; i++ {
		got, ok := repo2.Get(fmt.Sprintf("k%02d", i%10))
		if !ok || got.Rev != i {
			t.Fatalf("replayed k%02d = %+v, %t want rev %d", i%10, got, ok, i)
		}
	}
	// Sequence numbering continues across segments and reopen.
	if err := repo2.Put("after", doc{Title: "y"}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Engine.LastSeq; got <= 40 {
		t.Fatalf("sequence restarted: %d", got)
	}
}

// TestCompactSealThenFoldBoundsReplay is the acceptance test for the
// store side: after Compact (seal+fold), a reopen replays only the
// snapshot plus whatever was appended since — the replayed-entry count
// stops growing with history.
func TestCompactSealThenFoldBoundsReplay(t *testing.T) {
	eachFS(t, testCompactSealThenFoldBoundsReplay)
}

func testCompactSealThenFoldBoundsReplay(t *testing.T, fsys FS, dir string) {
	s, repo := openSegStore(t, fsys, dir, 0)
	log := MustLog(s, "execlog")
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if err := repo.Put("hot", doc{Title: "spam", Rev: i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(100)
	for i := 0; i < 5; i++ {
		if _, err := log.Append(LogEntry{Instance: "i1", Kind: "tick"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	replayTotal := func() (ReplayStats, *Store, *Repo[doc], *Log) {
		s := Open(dir, Options{FS: fsys})
		repo := MustRepo[doc](s, "docs")
		log := MustLog(s, "execlog")
		if err := s.Load(); err != nil {
			t.Fatal(err)
		}
		return s.Stats().Engine.Replay, s, repo, log
	}

	rs, s2, repo2, log2 := replayTotal()
	first := rs.SnapshotEntries + rs.TailEntries
	// 1 live doc + 5 log entries in the snapshot; nothing in the tail.
	if rs.SnapshotEntries != 6 || rs.TailEntries != 0 {
		t.Fatalf("first reopen replayed %+v, want 6 snapshot + 0 tail", rs)
	}
	if got, ok := repo2.Get("hot"); !ok || got.Rev != 99 {
		t.Fatalf("post-fold value = %+v, %t", got, ok)
	}
	if log2.Len() != 5 {
		t.Fatalf("log after fold = %d entries, want 5", log2.Len())
	}

	// Ten times more churn + another compact: replay cost must not grow.
	for i := 0; i < 1000; i++ {
		if err := repo2.Put("hot", doc{Title: "spam", Rev: 100 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	rs, s3, repo3, log3 := replayTotal()
	defer s3.Close()
	if got := rs.SnapshotEntries + rs.TailEntries; got != first {
		t.Fatalf("replay grew with history: %d entries after 10x churn, want %d (%+v)", got, first, rs)
	}
	if got, _ := repo3.Get("hot"); got.Rev != 1099 {
		t.Fatalf("value after second fold = %+v", got)
	}
	if log3.Len() != 5 {
		t.Fatalf("log duplicated across folds: %d entries", log3.Len())
	}
}

// TestFoldDoesNotBlockAppends proves the compaction-without-stopping-
// writers claim at the appender layer: while a fold is in flight (its
// live-image capture parked on a gate), appends keep committing.
func TestFoldDoesNotBlockAppends(t *testing.T) { eachFS(t, testFoldDoesNotBlockAppends) }

func testFoldDoesNotBlockAppends(t *testing.T, fsys FS, dir string) {
	a := openAppender(t, fsys, dir, false, nil)
	defer a.Close()
	if _, err := a.write(Entry{Repo: "docs", Op: OpPut, ID: "a", Data: json.RawMessage(`{}`)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	foldDone := make(chan error, 1)
	go func() {
		foldDone <- foldImage(a, func() []Entry {
			close(entered)
			<-release
			return []Entry{{Repo: "docs", Op: OpPut, ID: "a", Data: json.RawMessage(`{}`)}}
		})
	}()
	<-entered

	appendDone := make(chan error, 1)
	go func() {
		_, err := a.write(Entry{Repo: "docs", Op: OpPut, ID: "b", Data: json.RawMessage(`{}`)}, nil)
		appendDone <- err
	}()
	select {
	case err := <-appendDone:
		if err != nil {
			t.Fatalf("append during fold failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append blocked behind an in-flight fold")
	}
	close(release)
	if err := <-foldDone; err != nil {
		t.Fatal(err)
	}
	st := a.stats("journal")
	if st.Folds != 1 || st.SealedSegments != 0 {
		t.Fatalf("fold accounting: %+v", st)
	}
}

// TestSealWaitsForPendingApplies pins the "sealed implies applied"
// invariant: a batch whose entries are on disk but whose onCommit
// applications are still running must not be sealable — otherwise a
// fold racing in between would capture a live image missing those
// entries and delete the segment holding their only copy. The slow
// onCommit below parks mid-apply; Seal+Fold must wait it out and the
// fold image must include the entry.
func TestSealWaitsForPendingApplies(t *testing.T) { eachFS(t, testSealWaitsForPendingApplies) }

func testSealWaitsForPendingApplies(t *testing.T, fsys FS, dir string) {
	a := openAppender(t, fsys, dir, false, nil)
	defer a.Close()

	var mu sync.Mutex
	applied := false
	applyStarted := make(chan struct{})
	appendDone := make(chan error, 1)
	go func() {
		_, err := a.write(Entry{Repo: "docs", Op: OpPut, ID: "a", Data: json.RawMessage(`{}`)}, func(uint64) {
			close(applyStarted)
			time.Sleep(100 * time.Millisecond) // widen the window a racing fold would need
			mu.Lock()
			applied = true
			mu.Unlock()
		})
		appendDone <- err
	}()
	<-applyStarted

	// The entry is durable but its apply is mid-flight: seal + fold now.
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	var sawApplied bool
	if err := foldImage(a, func() []Entry {
		mu.Lock()
		sawApplied = applied
		mu.Unlock()
		return []Entry{{Repo: "docs", Op: OpPut, ID: "a", Data: json.RawMessage(`{}`)}}
	}); err != nil {
		t.Fatal(err)
	}
	if !sawApplied {
		t.Fatal("fold captured a live image missing a sealed entry's pending apply — durable write would be lost")
	}
	if err := <-appendDone; err != nil {
		t.Fatal(err)
	}
}

// TestFoldOverlapDoesNotDuplicateLogs pins the fold-boundary skip: the
// live image is captured after the boundary, so entries appended to
// the active segment between seal and capture land in BOTH the
// snapshot and the tail — replay must apply them exactly once. Logs
// are the part that would double without the skip.
func TestFoldOverlapDoesNotDuplicateLogs(t *testing.T) {
	eachFS(t, testFoldOverlapDoesNotDuplicateLogs)
}

func testFoldOverlapDoesNotDuplicateLogs(t *testing.T, fsys FS, dir string) {
	s := Open(dir, Options{FS: fsys})
	log := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := log.Append(LogEntry{Instance: "i1", Kind: "pre"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// These land in the fresh active segment AND in the snapshot the
	// fold below captures.
	for i := 0; i < 4; i++ {
		if _, err := log.Append(LogEntry{Instance: "i1", Kind: "overlap"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.runFold(true); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := Open(dir, Options{FS: fsys})
	log2 := MustLog(s2, "execlog")
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if log2.Len() != 9 {
		t.Fatalf("log replayed %d entries, want 9 (folded overlap must be skipped, not doubled)", log2.Len())
	}
	rs := s2.Stats().Engine.Replay
	if rs.SkippedEntries != 4 {
		t.Fatalf("skipped = %d, want the 4 overlap entries (%+v)", rs.SkippedEntries, rs)
	}
	// And the sequence numbering continued cleanly.
	if seq, err := log2.Append(LogEntry{Instance: "i1", Kind: "post"}); err != nil || seq != 10 {
		t.Fatalf("append after overlap replay: seq %d err %v, want 10", seq, err)
	}
}

// TestTornTailInSealedSegment crafts the crash shape the rotation
// introduces: a sealed (non-active) segment whose final line is torn.
// Replay must keep the segment's complete records, drop the torn line
// silently, and keep every later segment's records.
func TestTornTailInSealedSegment(t *testing.T) { eachFS(t, testTornTailInSealedSegment) }

func testTornTailInSealedSegment(t *testing.T, fsys FS, dir string) {
	seg1 := "{\"seq\":1,\"repo\":\"docs\",\"op\":\"put\",\"id\":\"a\",\"data\":{\"title\":\"keep\",\"rev\":1}}\n" +
		"{\"seq\":2,\"repo\":\"docs\",\"op\":\"put\",\"id\":\"b\",\"data\":{\"title\":\"torn\",\"rev\":1}" // no newline: torn
	active := "{\"seq\":3,\"repo\":\"docs\",\"op\":\"put\",\"id\":\"c\",\"data\":{\"title\":\"tail\",\"rev\":1}}\n"
	writeFile(t, fsys, filepath.Join(dir, sealedName(1)), []byte(seg1))
	writeFile(t, fsys, filepath.Join(dir, journalName), []byte(active))

	s, repo := openSegStore(t, fsys, dir, 0)
	if _, ok := repo.Get("a"); !ok {
		t.Fatal("complete record in sealed segment lost")
	}
	if _, ok := repo.Get("b"); ok {
		t.Fatal("torn sealed-segment record applied")
	}
	if _, ok := repo.Get("c"); !ok {
		t.Fatal("record after torn sealed segment lost")
	}
	// Still writable, and a second replay stays clean.
	if err := repo.Put("d", doc{Title: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, repo2 := openSegStore(t, fsys, dir, 0)
	defer s2.Close()
	for _, id := range []string{"a", "c", "d"} {
		if _, ok := repo2.Get(id); !ok {
			t.Fatalf("%s lost on second replay", id)
		}
	}
}

// TestCrashBetweenSealAndFold kills the process (simulated: no fold,
// no clean close beyond the flush) after a seal. Reopen must replay
// the sealed segment plus the active file — nothing lost — and a later
// Compact must fold the leftovers.
func TestCrashBetweenSealAndFold(t *testing.T) { eachFS(t, testCrashBetweenSealAndFold) }

func testCrashBetweenSealAndFold(t *testing.T, fsys FS, dir string) {
	s, repo := openSegStore(t, fsys, dir, 0)
	for i := 0; i < 10; i++ {
		if err := repo.Put(fmt.Sprintf("k%d", i), doc{Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Put("post-seal", doc{Rev: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // "crash": sealed segment never folded
		t.Fatal(err)
	}

	s2, repo2 := openSegStore(t, fsys, dir, 0)
	rs := s2.Stats().Engine.Replay
	if rs.Segments != 1 || rs.TailEntries != 11 {
		t.Fatalf("reopen after seal-without-fold replayed %+v, want 1 segment, 11 tail entries", rs)
	}
	for i := 0; i < 10; i++ {
		if _, ok := repo2.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost across seal-without-fold crash", i)
		}
	}
	if _, ok := repo2.Get("post-seal"); !ok {
		t.Fatal("post-seal record lost")
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, _ := openSegStore(t, fsys, dir, 0)
	defer s3.Close()
	if rs := s3.Stats().Engine.Replay; rs.Segments != 0 || rs.SnapshotEntries != 11 {
		t.Fatalf("after fold: %+v, want all 11 live entries from the snapshot", rs)
	}
}

// TestPartialSnapshotIgnored simulates a crash mid-snapshot-write: the
// temp file exists but was never renamed. Reopen must ignore (and
// remove) it and replay the full segment set as if the fold never
// started.
func TestPartialSnapshotIgnored(t *testing.T) { eachFS(t, testPartialSnapshotIgnored) }

func testPartialSnapshotIgnored(t *testing.T, fsys FS, dir string) {
	s, repo := openSegStore(t, fsys, dir, 0)
	for i := 0; i < 8; i++ {
		if err := repo.Put(fmt.Sprintf("k%d", i), doc{Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A fold died mid-write: a garbage temp snapshot next to intact
	// segments.
	tmp := filepath.Join(dir, snapName(1)+".tmp")
	writeFile(t, fsys, tmp, []byte("{\"seq\":1,\"repo\":\"docs\",\"op\":\"put\",\"id\":\"k0\",\"da"))

	s2, repo2 := openSegStore(t, fsys, dir, 0)
	defer s2.Close()
	for i := 0; i < 8; i++ {
		if _, ok := repo2.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d lost to a partial snapshot", i)
		}
	}
	if rs := s2.Stats().Engine.Replay; rs.SnapshotEntries != 0 || rs.TailEntries != 8 {
		t.Fatalf("partial snapshot was not ignored: %+v", rs)
	}
	if exists(fsys, tmp) {
		t.Fatal("partial snapshot temp file not removed")
	}
}

// TestFoldCrashAfterInstallCleansStaleSegments simulates a crash after
// the snapshot rename but before the folded segments were deleted:
// both generations on disk. Reopen must prefer the snapshot, ignore
// the stale folded segment (replaying it would resurrect overwritten
// state), and remove it.
func TestFoldCrashAfterInstallCleansStaleSegments(t *testing.T) {
	eachFS(t, testFoldCrashAfterInstallCleansStaleSegments)
}

func testFoldCrashAfterInstallCleansStaleSegments(t *testing.T, fsys FS, dir string) {
	// Stale folded segment: k=v1. Snapshot (newer): k=v2.
	seg := "{\"seq\":1,\"repo\":\"docs\",\"op\":\"put\",\"id\":\"k\",\"data\":{\"title\":\"v1\",\"rev\":1}}\n"
	snap := "{\"seq\":1,\"repo\":\"docs\",\"op\":\"put\",\"id\":\"k\",\"data\":{\"title\":\"v2\",\"rev\":2}}\n"
	writeFile(t, fsys, filepath.Join(dir, sealedName(1)), []byte(seg))
	writeFile(t, fsys, filepath.Join(dir, snapName(1)), []byte(snap))
	s, repo := openSegStore(t, fsys, dir, 0)
	defer s.Close()
	got, ok := repo.Get("k")
	if !ok || got.Title != "v2" {
		t.Fatalf("replay preferred the stale generation: %+v, %t", got, ok)
	}
	for _, name := range listNames(t, fsys, dir) {
		if name == sealedName(1) {
			t.Fatal("stale folded segment not cleaned up")
		}
	}
}

// TestAutoFoldRunsInBackground checks the end-to-end wiring: with a
// tiny segment bound, plain writes alone must eventually rotate, fold
// in the background, and bound the on-disk generation — no explicit
// Compact call.
func TestAutoFoldRunsInBackground(t *testing.T) { eachFS(t, testAutoFoldRunsInBackground) }

func testAutoFoldRunsInBackground(t *testing.T, fsys FS, dir string) {
	s, repo := openSegStore(t, fsys, dir, 512)
	defer s.Close()
	for i := 0; i < 200; i++ {
		if err := repo.Put("hot", doc{Title: strings.Repeat("x", 40), Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats().Engine
		if st.Folds > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background folder never folded: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInstancesFoldBoundsReplay is the instance-side acceptance test:
// a snapshot source folds per-id state, and reopen streams only the
// snapshot records plus the unfolded tail — per-id record order
// preserved, folded records skipped, count bounded as history grows.
func TestInstancesFoldBoundsReplay(t *testing.T) { eachFS(t, testInstancesFoldBoundsReplay) }

func testInstancesFoldBoundsReplay(t *testing.T, fsys FS, dir string) {
	const ids = 4

	// Test-side "runtime": per-id counters rebuilt from records. A
	// record {"add":n} adds n; a snapshot record {"sum":s} resets to s.
	type state struct {
		mu  sync.Mutex
		sum map[string]int
	}
	live := &state{sum: make(map[string]int)}
	apply := func(st *state) func(id string, data []byte) error {
		return func(id string, data []byte) error {
			var rec struct {
				Add  int  `json:"add"`
				Sum  *int `json:"sum"`
				Snap bool `json:"snap"`
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				return err
			}
			st.mu.Lock()
			defer st.mu.Unlock()
			if rec.Sum != nil {
				st.sum[id] = *rec.Sum
				return nil
			}
			st.sum[id] += rec.Add
			return nil
		}
	}
	source := func(st *state) SnapshotSource {
		return func(w *SnapshotWriter) (func(), error) {
			st.mu.Lock()
			defer st.mu.Unlock()
			for id, sum := range st.sum {
				if err := w.Emit(id, []byte(fmt.Sprintf(`{"snap":true,"sum":%d}`, sum))); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
	}

	c := OpenInstances(dir, InstancesOptions{FS: fsys, SegmentMaxBytes: 1 << 20})
	if err := c.Replay(apply(live)); err != nil {
		t.Fatal(err)
	}
	total := 0
	add := func(n int) {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("li-%06d", i%ids)
			if err := c.Append(id, []byte(`{"add":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := apply(live)(id, []byte(`{"add":1}`)); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	add(100)
	c.SetSnapshotSource(source(live))
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	add(10) // tail records after the fold
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	rebuilt := &state{sum: make(map[string]int)}
	if err := c2.Replay(apply(rebuilt)); err != nil {
		t.Fatal(err)
	}
	if got := c2.Replayed(); got != ids+10 {
		t.Fatalf("replayed %d records, want %d snapshots + 10 tail", got, ids)
	}
	for id, want := range live.sum {
		if rebuilt.sum[id] != want {
			t.Fatalf("%s rebuilt %d, want %d", id, rebuilt.sum[id], want)
		}
	}
	rs := c2.ReplayStats()
	if rs.SnapshotEntries != ids || rs.TailEntries != 10 {
		t.Fatalf("replay stats %+v, want %d snapshot + 10 tail", rs, ids)
	}
}

// TestInstancesConcurrentAppendDuringFold races appenders against
// folds — the writers-never-stall claim on the instance journal — and
// proves the rebuilt state still matches a sequential interpretation.
// Each id's appends happen under that id's own lock, and the source
// emits under it too, mirroring the runtime's instance-lock contract
// that makes fold boundaries exact.
func TestInstancesConcurrentAppendDuringFold(t *testing.T) {
	eachFS(t, testInstancesConcurrentAppendDuringFold)
}

func testInstancesConcurrentAppendDuringFold(t *testing.T, fsys FS, dir string) {
	const ids, perID = 4, 150
	c := OpenInstances(dir, InstancesOptions{FS: fsys, SegmentMaxBytes: 2048})
	if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}

	type slot struct {
		mu  sync.Mutex
		sum int
	}
	slots := make([]*slot, ids)
	for i := range slots {
		slots[i] = &slot{}
	}
	idOf := func(i int) string { return fmt.Sprintf("li-%06d", i) }
	c.SetSnapshotSource(func(w *SnapshotWriter) (func(), error) {
		for i, sl := range slots {
			sl.mu.Lock()
			err := w.Emit(idOf(i), []byte(fmt.Sprintf(`{"sum":%d}`, sl.sum)))
			sl.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
		return nil, nil
	})

	var wg sync.WaitGroup
	for w := 0; w < ids; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sl := slots[w]
			for i := 0; i < perID; i++ {
				sl.mu.Lock()
				sl.sum++ // mutate, then journal, under the id's lock — the runtime's order
				if err := c.Append(idOf(w), []byte(`{"add":1}`)); err != nil {
					sl.mu.Unlock()
					panic(err)
				}
				sl.mu.Unlock()
			}
		}(w)
	}
	foldErrs := make(chan error, 3)
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			foldErrs <- c.Compact()
		}()
	}
	wg.Wait()
	close(foldErrs)
	for err := range foldErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	got := make(map[string]int)
	if err := c2.Replay(func(id string, data []byte) error {
		var rec struct {
			Add int  `json:"add"`
			Sum *int `json:"sum"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		if rec.Sum != nil {
			got[id] = *rec.Sum
			return nil
		}
		got[id] += rec.Add
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ids; i++ {
		if got[idOf(i)] != perID {
			t.Fatalf("%s rebuilt %d, want %d (folded overlap double-applied or lost)", idOf(i), got[idOf(i)], perID)
		}
	}
}

// TestInstancesParallelReplayEquivalence replays the same journal
// sequentially and with sharded parallel appliers and expects
// identical per-id record streams — order within an id preserved,
// nothing lost, nothing duplicated. Run under -race this is the
// parallel-replay proof at the store layer.
func TestInstancesParallelReplayEquivalence(t *testing.T) {
	eachFS(t, testInstancesParallelReplayEquivalence)
}

func testInstancesParallelReplayEquivalence(t *testing.T, fsys FS, dir string) {
	const ids, perID = 9, 40
	c := OpenInstances(dir, InstancesOptions{FS: fsys, SegmentMaxBytes: 1024})
	if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ids*perID; i++ {
		id := fmt.Sprintf("li-%06d", i%ids)
		if err := c.Append(id, []byte(fmt.Sprintf(`{"i":%d}`, i/ids))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	collect := func(workers int) map[string][]int {
		c := OpenInstances(dir, InstancesOptions{FS: fsys})
		defer c.Close()
		var mu sync.Mutex
		got := make(map[string][]int)
		if err := c.ReplayParallel(workers, func(id string, data []byte) error {
			var rec struct{ I int }
			if err := json.Unmarshal(data, &rec); err != nil {
				return err
			}
			mu.Lock()
			got[id] = append(got[id], rec.I)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	seq := collect(1)
	par := collect(8)
	if len(seq) != ids || len(par) != ids {
		t.Fatalf("id sets: %d vs %d, want %d", len(seq), len(par), ids)
	}
	for id, want := range seq {
		got := par[id]
		if len(got) != len(want) {
			t.Fatalf("%s: %d records parallel vs %d sequential", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s record %d: parallel %d vs sequential %d (per-id order broken)", id, i, got[i], want[i])
			}
		}
	}
}

// TestInstancesParallelReplayPropagatesErrors: an apply error on one
// worker must surface from ReplayParallel, not hang or vanish.
func TestInstancesParallelReplayPropagatesErrors(t *testing.T) {
	eachFS(t, testInstancesParallelReplayPropagatesErrors)
}

func testInstancesParallelReplayPropagatesErrors(t *testing.T, fsys FS, dir string) {
	c := OpenInstances(dir, InstancesOptions{FS: fsys})
	if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.Append(fmt.Sprintf("li-%06d", i%5), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	boom := fmt.Errorf("boom")
	var n atomic.Int64
	err := c2.ReplayParallel(4, func(string, []byte) error {
		if n.Add(1) > 10 {
			return boom
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("ReplayParallel = %v, want the apply error", err)
	}
}
