package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// openAppender opens an appender on dir, streaming its replay through
// fn (nil = discard).
func openAppender(t *testing.T, fsys FS, dir string, sync bool, fn func(Entry) error) *appender {
	t.Helper()
	if fn == nil {
		fn = func(Entry) error { return nil }
	}
	a := &appender{fs: fsys, dir: dir, sync: sync}
	if err := a.open(IntegrityOptions{}, func(st segState) (segReplay, error) {
		return replaySegmented(fsys, dir, st, entryRepo, fn, nil)
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

// foldImage folds a's sealed segments into a snapshot of the entries
// build returns.
func foldImage(a *appender, build func() []Entry) error {
	return a.fold(func(sj *Journal) (func(), error) {
		for _, e := range build() {
			if err := sj.writeRaw(e); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

// replayIDs reopens dir and returns the IDs of every replayed entry.
func replayIDs(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	var ids []string
	a := openAppender(t, fsys, dir, false, func(e Entry) error {
		ids = append(ids, e.ID)
		return nil
	})
	a.Close()
	return ids
}

func putEntry(id string) Entry {
	return Entry{Repo: "docs", Op: OpPut, ID: id, Data: json.RawMessage(`{}`)}
}

// TestAppenderFailedFlushAcksNone closes the active segment's file
// under the appender, so the next flush fails and the journal's error
// turns sticky. Every appender whose record the failed flush covered
// must get an error, none of their onCommits may run, nothing may be
// counted as committed, and a reopen must replay only what was
// acknowledged before the failure.
func TestAppenderFailedFlushAcksNone(t *testing.T) {
	eachFS(t, testAppenderFailedFlushAcksNone)
}

func testAppenderFailedFlushAcksNone(t *testing.T, fsys FS, dir string) {
	a := openAppender(t, fsys, dir, true, nil)
	var applied atomic.Int64
	onCommit := func(uint64) { applied.Add(1) }
	if _, err := a.write(putEntry("before"), onCommit); err != nil {
		t.Fatal(err)
	}

	a.mu.Lock()
	a.j.f.Close()
	a.mu.Unlock()

	const writers = 8
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := a.write(putEntry(fmt.Sprintf("w%d", w)), onCommit)
			errs <- err
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("an append was acknowledged by a failed flush")
		}
	}
	if n := applied.Load(); n != 1 {
		t.Fatalf("%d onCommits ran, want only the one acknowledged before the failure", n)
	}
	if st := a.stats("journal"); st.Appends != 1 || st.Batches != 1 || st.Syncs != 1 {
		t.Fatalf("stats after failed flushes = %+v, want 1 append/batch/sync", st)
	}
	a.Close() // fails too: the file is gone

	if ids := replayIDs(t, fsys, dir); len(ids) != 1 || ids[0] != "before" {
		t.Fatalf("replayed %v, want [before]", ids)
	}
}

// TestAppenderCloseAcksOnlyApplied closes the appender while writers
// are appending. An append is acknowledged exactly when its onCommit ran
// with the returned sequence; every other append fails with ErrClosed
// and never applies; and a reopen replays exactly the acknowledged
// records.
func TestAppenderCloseAcksOnlyApplied(t *testing.T) {
	eachFS(t, testAppenderCloseAcksOnlyApplied)
}

func testAppenderCloseAcksOnlyApplied(t *testing.T, fsys FS, dir string) {
	a := openAppender(t, fsys, dir, false, nil)

	var mu sync.Mutex
	applied := make(map[string]uint64)
	acked := make(map[string]uint64)
	failed := 0
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				seq, err := a.write(putEntry(id), func(seq uint64) {
					mu.Lock()
					applied[id] = seq
					mu.Unlock()
				})
				mu.Lock()
				if err == nil {
					acked[id] = seq
				} else {
					failed++
				}
				mu.Unlock()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("append %s: %v, want ErrClosed", id, err)
					}
					return
				}
			}
		}(w)
	}
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 200 {
			break
		}
		runtime.Gosched()
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if failed != writers {
		t.Fatalf("%d appends failed, want one per writer", failed)
	}
	if len(applied) != len(acked) {
		t.Fatalf("%d onCommits ran for %d acknowledged appends", len(applied), len(acked))
	}
	for id, seq := range acked {
		if applied[id] != seq {
			t.Fatalf("%s acknowledged at seq %d, applied at %d", id, seq, applied[id])
		}
	}
	ids := replayIDs(t, fsys, dir)
	if len(ids) != len(acked) {
		t.Fatalf("replayed %d records, acknowledged %d", len(ids), len(acked))
	}
	for _, id := range ids {
		if _, ok := acked[id]; !ok {
			t.Fatalf("unacknowledged record %s replayed", id)
		}
	}
}

// TestAppenderAppliesInSeqOrder drives concurrent appends and checks
// the applies ran in journal order: one onCommit per append, with the
// sequence write returned, in strictly increasing and dense order.
func TestAppenderAppliesInSeqOrder(t *testing.T) {
	a := openAppender(t, NewMemFS(), "/journal", false, nil)
	defer a.Close()
	const writers, perWriter = 8, 50
	var mu sync.Mutex
	var order, returned []uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := a.write(putEntry(fmt.Sprintf("w%d-%d", w, i)), func(seq uint64) {
					mu.Lock()
					order = append(order, seq)
					mu.Unlock()
				})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				returned = append(returned, seq)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(order) != writers*perWriter {
		t.Fatalf("%d applies, want %d", len(order), writers*perWriter)
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("apply %d ran seq %d: applies out of journal order", i, seq)
		}
	}
	sort.Slice(returned, func(i, j int) bool { return returned[i] < returned[j] })
	for i, seq := range returned {
		if seq != uint64(i+1) {
			t.Fatalf("returned seqs are not the applied ones: %d at %d", seq, i)
		}
	}
}

// TestAppenderSealDrainsQueuedApplies parks an entry between its write
// and its flush — written and queued, the state an appender is in while
// it yields — and seals: the seal must flush and apply it first, so a
// sealed segment never holds an unapplied entry.
func TestAppenderSealDrainsQueuedApplies(t *testing.T) {
	eachFS(t, testAppenderSealDrainsQueuedApplies)
}

func testAppenderSealDrainsQueuedApplies(t *testing.T, fsys FS, dir string) {
	a := openAppender(t, fsys, dir, false, nil)
	defer a.Close()
	applied := false
	a.mu.Lock()
	seq, err := a.j.writeEntry(putEntry("a"))
	a.queued = append(a.queued, queuedApply{seq: seq, fn: func(uint64) { applied = true }})
	a.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("seal sealed a written entry before applying it")
	}
	if st := a.stats("journal"); st.SealedSegments != 1 || st.Appends != 1 {
		t.Fatalf("stats after seal = %+v, want 1 sealed segment and 1 append", st)
	}
}
