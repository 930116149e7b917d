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

// openEngine opens a journal engine on dir with an empty replay.
func openEngine(t *testing.T, dir string, sync bool) Engine {
	t.Helper()
	eng, err := NewJournalEngine(JournalConfig{Dir: dir, Sync: sync})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Replay(func(Entry) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return eng
}

// replayIDs reopens dir and returns the IDs of every replayed entry.
func replayIDs(t *testing.T, dir string) []string {
	t.Helper()
	eng, err := NewJournalEngine(JournalConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var ids []string
	if err := eng.Replay(func(e Entry) error {
		ids = append(ids, e.ID)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
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
	dir := t.TempDir()
	eng := openEngine(t, dir, true)
	var applied atomic.Int64
	onCommit := func(uint64) { applied.Add(1) }
	if _, err := eng.Append(putEntry("before"), onCommit); err != nil {
		t.Fatal(err)
	}

	je := eng.(*journalEngine)
	je.mu.Lock()
	je.j.f.Close()
	je.mu.Unlock()

	const writers = 8
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := eng.Append(putEntry(fmt.Sprintf("w%d", w)), onCommit)
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
	if st := eng.Stats(); st.Appends != 1 || st.Batches != 1 || st.Syncs != 1 {
		t.Fatalf("stats after failed flushes = %+v, want 1 append/batch/sync", st)
	}
	eng.Close() // fails too: the file is gone

	if ids := replayIDs(t, dir); len(ids) != 1 || ids[0] != "before" {
		t.Fatalf("replayed %v, want [before]", ids)
	}
}

// TestAppenderCloseAcksOnlyApplied closes the engine while writers are
// appending. An append is acknowledged exactly when its onCommit ran
// with the returned sequence; every other append fails with ErrClosed
// and never applies; and a reopen replays exactly the acknowledged
// records.
func TestAppenderCloseAcksOnlyApplied(t *testing.T) {
	dir := t.TempDir()
	eng := openEngine(t, dir, false)

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
				seq, err := eng.Append(putEntry(id), func(seq uint64) {
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
	if err := eng.Close(); err != nil {
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
	ids := replayIDs(t, dir)
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
// sequence Append returned, in strictly increasing and dense order.
func TestAppenderAppliesInSeqOrder(t *testing.T) {
	eng := openEngine(t, t.TempDir(), false)
	defer eng.Close()
	const writers, perWriter = 8, 50
	var mu sync.Mutex
	var order, returned []uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := eng.Append(putEntry(fmt.Sprintf("w%d-%d", w, i)), func(seq uint64) {
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
	eng := openEngine(t, t.TempDir(), false)
	defer eng.Close()
	je := eng.(*journalEngine)
	applied := false
	je.mu.Lock()
	seq, err := je.j.writeEntry(putEntry("a"))
	je.queued = append(je.queued, queuedApply{seq: seq, fn: func(uint64) { applied = true }})
	je.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Seal(); err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("seal sealed a written entry before applying it")
	}
	if st := eng.Stats(); st.SealedSegments != 1 || st.Appends != 1 {
		t.Fatalf("stats after seal = %+v, want 1 sealed segment and 1 append", st)
	}
}
