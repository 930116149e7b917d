package runtime

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
)

// storeSink adapts the real on-disk instance collection to the
// runtime's Journal seam, exactly as the facade does.
type storeSink struct{ coll *store.Instances }

func (s storeSink) Record(rec *JournalRecord) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	if rec.Op == RecModel {
		return s.coll.AppendShared(rec.Instance, data)
	}
	return s.coll.Append(rec.Instance, data)
}

// TestStressPersistCrashRecovery hammers a journaled runtime from many
// goroutines against the real flush-combining instance journal, then
// simulates a crash: the collection is abandoned without Close and the
// journal file gets a torn partial batch appended (the damage a kill
// mid-write leaves). A fresh collection+runtime pair must replay every
// acknowledged mutation — token positions, histories, executions,
// counters, indexes byte-identical — and drop the torn tail. Run with
// -race.
func TestStressPersistCrashRecovery(t *testing.T) {
	const workers, perWorker, rounds = 8, 3, 12
	dir := t.TempDir()
	coll := store.OpenInstances(dir, store.InstancesOptions{})
	if err := coll.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	inv := &recordingInvoker{status: actionlib.StatusCompleted}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{
		Registry:    testActions(t),
		Invoker:     inv,
		Clock:       clock,
		SyncActions: true,
		Journal:     storeSink{coll},
	})
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt

	model := fig1(t)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]string, perWorker)
			for i := range ids {
				ref := wikiRef()
				ref.URI = fmt.Sprintf("http://wiki.liquidpub.org/w%d-%d", w, i)
				snap, err := rt.Instantiate(model, ref, fmt.Sprintf("owner-%d", w),
					map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "alice"}})
				if err != nil {
					panic(err)
				}
				ids[i] = snap.ID
			}
			phases := []string{"elaboration", "internalreview", "elaboration", "finalassembly", "eureview"}
			for r := 0; r < rounds; r++ {
				id := ids[r%perWorker]
				if _, err := rt.Advance(id, phases[r%len(phases)], fmt.Sprintf("owner-%d", w), AdvanceOptions{}); err != nil {
					panic(err)
				}
				if err := rt.Annotate(id, fmt.Sprintf("owner-%d", w), fmt.Sprintf("round %d", r)); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	rt.WaitDispatch()

	// Crash: no Close. Everything acknowledged is already write(2)-deep
	// in the journal. A partially written batch tail goes on top.
	f, err := os.OpenFile(filepath.Join(dir, "gelee.journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":999999,"repo":"instances","op":"append","id":"li-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	coll2 := store.OpenInstances(dir, store.InstancesOptions{})
	defer coll2.Close()
	rt2, err := New(Config{Registry: testActions(t), Invoker: inv, Clock: clock, SyncActions: true,
		Journal: storeSink{coll2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coll2.Replay(rt2.ApplyJournal); err != nil {
		t.Fatal(err)
	}
	rec := rt2.FinishRecovery()
	if rec.Instances != workers*perWorker {
		t.Fatalf("recovered %d instances, want %d", rec.Instances, workers*perWorker)
	}
	if rec.Records != coll2.Replayed() {
		t.Fatalf("recovery counted %d records, collection replayed %d", rec.Records, coll2.Replayed())
	}
	assertSameState(t, rt, rt2)

	// Gapless per-instance seqs and a token position backed by the last
	// phase-entered event — the recovered journal is a consistent
	// prefix, not a re-interpretation.
	for _, snap := range snapshots(rt2, Filter{}) {
		last := ""
		for i, ev := range snap.Events {
			if ev.Seq != i+1 {
				t.Fatalf("%s: seq gap at %d (seq %d)", snap.ID, i, ev.Seq)
			}
			if ev.Kind == EventPhaseEntered {
				last = ev.Phase
			}
		}
		if snap.Current != last {
			t.Fatalf("%s: token at %q but last phase-entered was %q", snap.ID, snap.Current, last)
		}
	}

	// The recovered pair keeps working: new mutations journal cleanly
	// after the torn tail was truncated away.
	snap, err := rt2.Instantiate(model, wikiRef(), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}
