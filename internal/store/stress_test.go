package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestConcurrentShardedStress hammers sharded Put/Get/Delete, the log,
// and the read paths from many goroutines at once over the journal
// engine. Run under -race this is the data tier's concurrency proof.
// Each goroutine owns a disjoint key space so the final state is
// deterministic and can be checked against a replay.
func TestConcurrentShardedStress(t *testing.T) {
	const writers, perWriter = 8, 40
	dir := t.TempDir()
	s, repo := openStore(t, dir)

	var wg sync.WaitGroup
	errs := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-k%d", w, i%10)
				if err := repo.Put(id, doc{Title: id, Rev: i}); err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					if err := repo.Delete(fmt.Sprintf("w%d-k%d", w, (i+3)%10)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Concurrent readers exercise the shard read locks and the
	// cross-shard aggregation paths.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				repo.Get(fmt.Sprintf("w%d-k%d", i%writers, i%10))
				repo.Len()
				repo.IDs()
				s.Stats()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := make(map[string]doc)
	for _, id := range repo.IDs() {
		v, _ := repo.Get(id)
		want[id] = v
	}
	stats := s.Stats()
	if stats.Engine.Appends == 0 {
		t.Fatalf("engine recorded no appends: %+v", stats.Engine)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, repo2 := openStore(t, dir)
	for id, w := range want {
		got, ok := repo2.Get(id)
		if !ok || got != w {
			t.Fatalf("replay mismatch for %s: got %+v,%t want %+v", id, got, ok, w)
		}
	}
	if repo2.Len() != len(want) {
		t.Fatalf("replayed %d items, want %d", repo2.Len(), len(want))
	}
}

// TestSameKeyConcurrentPutsReplayConsistent hammers a single key from
// many goroutines: because the engine applies mutations in journal
// order, the live value after the dust settles must be byte-identical
// to what replaying the journal reconstructs — no "memory says A, disk
// says B" divergence for racing writers.
func TestSameKeyConcurrentPutsReplayConsistent(t *testing.T) {
	const writers, perWriter = 8, 30
	dir := t.TempDir()
	s, repo := openStore(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := repo.Put("contended", doc{Title: fmt.Sprintf("w%d", w), Rev: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	live, ok := repo.Get("contended")
	if !ok {
		t.Fatal("contended key missing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, repo2 := openStore(t, dir)
	replayed, ok := repo2.Get("contended")
	if !ok || replayed != live {
		t.Fatalf("replayed %+v,%t diverged from live %+v", replayed, ok, live)
	}
}

// TestConcurrentLogAppend checks that concurrent log appends all commit,
// all replay, and sequence numbering stays dense.
func TestConcurrentLogAppend(t *testing.T) {
	const writers, perWriter = 6, 25
	dir := t.TempDir()
	s := Open(dir, Options{})
	log := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := log.Append(LogEntry{Instance: fmt.Sprintf("i%d", w), Kind: "tick"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if log.Len() != writers*perWriter {
		t.Fatalf("log has %d entries, want %d", log.Len(), writers*perWriter)
	}
	s.Close()

	s2 := Open(dir, Options{})
	log2 := MustLog(s2, "execlog")
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if log2.Len() != writers*perWriter {
		t.Fatalf("replayed log has %d entries, want %d", log2.Len(), writers*perWriter)
	}
	for _, w := range []string{"i0", "i5"} {
		if got := len(entriesOf(log2, w)); got != perWriter {
			t.Fatalf("entries of %s after replay = %d, want %d", w, got, perWriter)
		}
	}
}

// TestConcurrentLogAppendOrder runs concurrent appends, then walks the
// log with a Page cursor: every entry must come back exactly once, in
// Seq order — live, and after a reopen too, in memory and on disk. An
// append that committed out of Seq order would apply after a higher
// Seq, and the cursor (after = last Seq seen) would skip it.
func TestConcurrentLogAppendOrder(t *testing.T) {
	const writers = 8
	appendAll := func(t *testing.T, lg *Log, perWriter int) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := lg.Append(LogEntry{Kind: "tick", Detail: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
	walk := func(t *testing.T, lg *Log, want int) {
		t.Helper()
		var got int
		after := uint64(0)
		for {
			page, err := lg.Page(after, 7)
			if err != nil {
				t.Fatal(err)
			}
			if len(page.Items) == 0 {
				break
			}
			for _, e := range page.Items {
				if e.Seq != uint64(got+1) {
					t.Fatalf("cursor walk: entry %d has seq %d", got, e.Seq)
				}
				got++
			}
			after = page.Items[len(page.Items)-1].Seq
		}
		if got != want {
			t.Fatalf("cursor walk returned %d of %d entries", got, want)
		}
	}

	run := func(t *testing.T, fsys FS, dir string) {
		s, lg := openLogStore(t, fsys, dir)
		appendAll(t, lg, 200)
		walk(t, lg, writers*200)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, lg2 := openLogStore(t, fsys, dir)
		defer s2.Close()
		walk(t, lg2, writers*200)
	}
	t.Run("memory", func(t *testing.T) { run(t, NewMemFS(), "/journal") })
	t.Run("journal", func(t *testing.T) { run(t, osFS{}, t.TempDir()) })
}

// TestTornBatchTailRecovered simulates a crash that cuts a combined
// flush short: the journal ends with some complete lines of the batch
// followed by a torn partial line. Recovery must keep every complete
// record, drop the torn tail silently, and leave the store writable.
func TestTornBatchTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s, repo := openStore(t, dir)
	// Concurrent puts so the tail of the file really is batch-written.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			repo.Put(fmt.Sprintf("pre%d", w), doc{Title: "keep", Rev: w})
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-batch: two complete entries of the batch reached the
	// disk, the third is torn (no newline, truncated JSON).
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	batchTail := `{"seq":101,"repo":"docs","op":"put","id":"b1","data":{"title":"batch","rev":1}}
{"seq":102,"repo":"docs","op":"put","id":"b2","data":{"title":"batch","rev":2}}
{"seq":103,"repo":"docs","op":"put","id":"b3","data":{"ti`
	if _, err := f.WriteString(batchTail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, repo2 := openStore(t, dir)
	defer s2.Close()
	for w := 0; w < 4; w++ {
		if _, ok := repo2.Get(fmt.Sprintf("pre%d", w)); !ok {
			t.Fatalf("pre-crash record pre%d lost", w)
		}
	}
	for _, id := range []string{"b1", "b2"} {
		if _, ok := repo2.Get(id); !ok {
			t.Fatalf("complete batch record %s lost", id)
		}
	}
	if _, ok := repo2.Get("b3"); ok {
		t.Fatal("torn batch record applied")
	}
	// The store must append correctly after recovery, continuing past
	// the recovered sequence.
	if err := repo2.Put("after", doc{Title: "post-crash"}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Engine.LastSeq; got <= 102 {
		t.Fatalf("sequence did not continue past recovered tail: %d", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The torn tail must have been truncated away on recovery: a write
	// landing after it must not weld onto the torn bytes, so a THIRD
	// open replays cleanly — this is the regression the old O_APPEND
	// behavior had (torn tail + append = mid-file corruption).
	s3, repo3 := openStore(t, dir)
	defer s3.Close()
	if _, ok := repo3.Get("after"); !ok {
		t.Fatal("post-recovery write lost on second replay")
	}
	if _, ok := repo3.Get("b2"); !ok {
		t.Fatal("recovered record lost on second replay")
	}
}

// TestGroupCommitBatchesAndAcks drives enough concurrency at the
// engine that flushes are actually combined, and checks every
// appender is acknowledged with a consistent stats picture.
func TestGroupCommitBatchesAndAcks(t *testing.T) {
	const writers, perWriter = 8, 20
	dir := t.TempDir()
	s := Open(dir, Options{Sync: true})
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := repo.Put(fmt.Sprintf("w%d-%d", w, i), doc{Rev: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Engine.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Engine.Appends, writers*perWriter)
	}
	if st.Engine.Batches == 0 || st.Engine.Batches > st.Engine.Appends {
		t.Fatalf("implausible batch count: %+v", st.Engine)
	}
	if st.Engine.Syncs != st.Engine.Batches {
		t.Fatalf("durable mode must fsync once per batch: %+v", st.Engine)
	}
	if st.Engine.State != StateRunning {
		t.Fatalf("state = %q, want running", st.Engine.State)
	}
	if st.Repos["docs"] != writers*perWriter {
		t.Fatalf("repo size = %d", st.Repos["docs"])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Engine.State; got != StateClosed {
		t.Fatalf("state after close = %q, want closed", got)
	}
	// Mutations after close fail cleanly rather than hanging.
	if err := repo.Put("late", doc{}); err == nil {
		t.Fatal("put after close succeeded")
	}
}

// TestExplicitEngineConstruction: a store opened on an explicit file
// system (the in-memory one), loaded, sharded by an explicit stripe
// count, runs the journal engine.
func TestExplicitEngineConstruction(t *testing.T) {
	s := Open("/", Options{FS: NewMemFS(), Shards: 4})
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := repo.Put(fmt.Sprintf("k%d", i), doc{Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Shards != 4 {
		t.Fatalf("shards = %d, want 4", st.Shards)
	}
	if st.Engine.Engine != "journal" || st.Engine.Appends != 20 {
		t.Fatalf("engine stats = %+v", st.Engine)
	}
	if repo.Len() != 20 {
		t.Fatalf("len = %d", repo.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactDuringConcurrentWrites interleaves Compact with writers:
// compaction must never lose an acknowledged write.
func TestCompactDuringConcurrentWrites(t *testing.T) {
	const writers, perWriter = 4, 30
	dir := t.TempDir()
	s, repo := openStore(t, dir)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := repo.Put(fmt.Sprintf("w%d-k%d", w, i%5), doc{Title: "x", Rev: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	want := make(map[string]doc)
	for _, id := range repo.IDs() {
		v, _ := repo.Get(id)
		want[id] = v
	}
	s.Close()

	_, repo2 := openStore(t, dir)
	for id, w := range want {
		got, ok := repo2.Get(id)
		if !ok || got != w {
			t.Fatalf("post-compact replay mismatch for %s: %+v,%t want %+v", id, got, ok, w)
		}
	}
}
