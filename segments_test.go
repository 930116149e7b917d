package gelee

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
)

// TestRestartReplayBoundedAfterFold is the PR's acceptance test at the
// system level: once Compact folds the journals, a restart replays
// only the snapshots plus the unfolded tail — the replayed-record
// count stops growing with history — and the recovered state is
// byte-identical to the pre-restart state.
func TestRestartReplayBoundedAfterFold(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	ids := seedWorkload(t, sys)
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	want := snapshotJSON(t, sys)
	clock.Advance(45 * 24 * time.Hour) // past the early deadlines
	wantCockpit := sys.Monitor().Summarize()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := newSystem(t, restartOpts(dir, clock))
	rec := sys2.RecoveryStats()
	if rec.Instances != len(ids) {
		t.Fatalf("recovered %d instances, want %d", rec.Instances, len(ids))
	}
	// Everything was folded: replay streamed exactly one snapshot
	// record per instance, zero tail records.
	if rec.Records != int64(len(ids)) {
		t.Fatalf("replayed %d records after fold, want %d (one snapshot per instance)", rec.Records, len(ids))
	}
	inst := sys2.StoreStats().Instances
	if inst == nil || inst.Replay.SnapshotEntries != len(ids) || inst.Replay.TailEntries != 0 {
		t.Fatalf("instance replay stats %+v, want %d snapshot + 0 tail", inst.Replay, len(ids))
	}
	if got := snapshotJSON(t, sys2); !reflect.DeepEqual(want, got) {
		t.Fatalf("state diverged across fold+restart:\nbefore %v\nafter  %v", want, got)
	}
	if got := sys2.Monitor().Summarize(); got.Late == 0 || !reflect.DeepEqual(wantCockpit, got) {
		t.Fatalf("cockpit summary across fold+restart:\nbefore %+v\nafter  %+v", wantCockpit, got)
	}
	storeReplayed := sys2.StoreStats().Engine.Replay
	firstStore := storeReplayed.SnapshotEntries + storeReplayed.TailEntries

	// 10x more history, another fold: the restart cost must not grow
	// with it (the population is unchanged, so neither is the
	// snapshot).
	for round := 0; round < 10; round++ {
		for _, id := range ids {
			if err := sys2.Annotate(id, "owner", fmt.Sprintf("churn %d", round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys2.Compact(); err != nil {
		t.Fatal(err)
	}
	want2 := snapshotJSON(t, sys2)
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	sys3 := newSystem(t, restartOpts(dir, clock))
	defer sys3.Close()
	rec3 := sys3.RecoveryStats()
	if rec3.Records != int64(len(ids)) {
		t.Fatalf("replayed records grew with history: %d after churn, want %d", rec3.Records, len(ids))
	}
	sr := sys3.StoreStats().Engine.Replay
	if got := sr.SnapshotEntries + sr.TailEntries; got > firstStore+len(ids)*10 {
		// The execution log legitimately grows (logs are history); the
		// point is that replay is bounded by live state, not by every
		// put/append ever journaled.
		t.Fatalf("store replay grew unboundedly: %d entries vs %d at first fold", got, firstStore)
	}
	if got := snapshotJSON(t, sys3); !reflect.DeepEqual(want2, got) {
		t.Fatalf("state diverged after second fold+restart")
	}
	// And the recovered system keeps serving.
	if _, err := sys3.Advance(ids[1], "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestRotationBoundaryKillRecovery forces many segment rotations and
// background folds during a live workload, then "kills" the process —
// its background work halted, no Close — and tears the active
// segment's tail for good measure. The
// restarted system must recover every acknowledged mutation across the
// segment boundaries and keep serving.
func TestRotationBoundaryKillRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	opts := restartOpts(dir, clock)
	opts.SegmentMaxBytes = 4 << 10 // rotate every few records
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// No sys.Close, ever: every acknowledged mutation must already be
	// on disk, wherever rotation and folding have shuffled it.
	ids := seedWorkload(t, sys)
	for round := 0; round < 30; round++ {
		for _, id := range ids {
			if err := sys.Annotate(id, "owner", fmt.Sprintf("churn %d %s", round, strings.Repeat("x", 64))); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.Runtime.WaitDispatch()
	if st := sys.StoreStats().Instances; st.Rotations == 0 {
		t.Fatalf("workload never rotated the instance journal: %+v", st)
	}
	want := snapshotJSON(t, sys)
	// The kill: background folds and scrubs stop, as they would with
	// the process, so none of them can write into the directory while
	// the restarted system uses it. Nothing is flushed or closed.
	sys.store.Halt()
	sys.instances.Halt()

	// Torn tail on the active segment: a batch cut short mid-write.
	jf := filepath.Join(dir, "instances", "gelee.journal")
	f, err := os.OpenFile(jf, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":424242,"repo":"instances","op":"append","id":"li-0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sys2 := newSystem(t, restartOpts(dir, clock))
	defer sys2.Close()
	if got := snapshotJSON(t, sys2); !reflect.DeepEqual(want, got) {
		t.Fatalf("rotation-boundary kill recovery diverged")
	}
	if _, err := sys2.Advance(ids[0], "eureview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactDuringLiveAdvances interleaves Compact with concurrent
// token moves at the system level: no stall, no lost acknowledged
// mutation, and the post-dust state replays identically.
func TestCompactDuringLiveAdvances(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	ids := seedWorkload(t, sys)

	done := make(chan error, len(ids)+1)
	for _, id := range ids {
		go func(id string) {
			for i := 0; i < 25; i++ {
				if err := sys.Annotate(id, "owner", "concurrent with compact"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(id)
	}
	go func() {
		for i := 0; i < 5; i++ {
			if err := sys.Compact(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < len(ids)+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := snapshotJSON(t, sys)
	wantLog := sys.ExecutionLog().Len()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := newSystem(t, restartOpts(dir, clock))
	defer sys2.Close()
	if got := snapshotJSON(t, sys2); !reflect.DeepEqual(want, got) {
		t.Fatalf("compact-under-load state diverged after restart")
	}
	if got := sys2.ExecutionLog().Len(); got != wantLog {
		t.Fatalf("execution log %d entries after restart, want %d (fold dropped or doubled history)", got, wantLog)
	}
	var sums []Summary
	data, _ := json.Marshal(allSummaries(sys2))
	if err := json.Unmarshal(data, &sums); err != nil || len(sums) != len(ids) {
		t.Fatalf("summaries after restart: %d, want %d", len(sums), len(ids))
	}
}

// TestDataDirPicksEngine: DataDir alone chooses where the one storage
// engine keeps its journals. Without it both run on an in-memory file
// system — named "memory", instance journal and persistence sink wired
// as on disk; with it both journals open under the directory and a
// reopen recovers the instances. Either way the locks stripe by the
// package defaults.
func TestDataDirPicksEngine(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	mem := newSystem(t, Options{Clock: clock, PersistInstances: true})
	seedWorkload(t, mem)
	if st := mem.StoreStats(); st.Engine.Engine != "memory" || st.Instances == nil || st.Instances.Appends == 0 {
		t.Fatalf("no DataDir: engine %q, instance journal %v, want memory and one that took the appends", st.Engine.Engine, st.Instances)
	}
	if !mem.RuntimeStats().Persistence.Enabled {
		t.Fatal("no DataDir: instance journal sink not wired")
	}

	dir := t.TempDir()
	sys := newSystem(t, restartOpts(dir, clock))
	ids := seedWorkload(t, sys)
	st := sys.StoreStats()
	if st.Engine.Engine != "journal" || st.Instances == nil {
		t.Fatalf("DataDir: engine %q, instance journal %v, want journal and one", st.Engine.Engine, st.Instances)
	}
	if !sys.RuntimeStats().Persistence.Enabled {
		t.Fatal("DataDir with PersistInstances: instance persistence disabled")
	}
	if st.Shards != store.DefaultShards || sys.RuntimeStats().Shards != runtime.DefaultShards {
		t.Fatalf("shards: store %d, runtime %d, want %d, %d",
			st.Shards, sys.RuntimeStats().Shards, store.DefaultShards, runtime.DefaultShards)
	}
	want := snapshotJSON(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2 := newSystem(t, restartOpts(dir, clock))
	if got := sys2.RecoveryStats().Instances; got != len(ids) {
		t.Fatalf("reopen recovered %d instances, want %d", got, len(ids))
	}
	if got := snapshotJSON(t, sys2); !reflect.DeepEqual(want, got) {
		t.Fatal("reopened instances differ from the ones written")
	}
}

// TestEveryRotationFolds: with no fold pacing, every automatic
// rotation of the definitions journal and of the instance journal is
// followed by a background fold that leaves no sealed segment behind
// — one rotation at a time, so a fold that waited for a second sealed
// segment would time out.
func TestEveryRotationFolds(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	opts := restartOpts(t.TempDir(), clock)
	opts.SegmentMaxBytes = 2 << 10
	sys := newSystem(t, opts)
	ids := seedWorkload(t, sys)
	model := scenario.QualityPlan()

	each := func(name string, stats func() store.EngineStats, write func(i int) error) {
		t.Helper()
		for r := 1; r <= 3; r++ {
			before := stats()
			for i := 0; stats().Rotations == before.Rotations; i++ {
				if i == 1000 {
					t.Fatalf("%s: 1000 writes never rotated: %+v", name, stats())
				}
				if err := write(i); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				st := stats()
				if st.Folds > before.Folds && st.SealedSegments == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: rotation %d not followed by a fold: %+v", name, r, st)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	each("definitions journal", func() store.EngineStats { return sys.StoreStats().Engine },
		func(int) error { return sys.SaveTemplate("", model) })
	each("instance journal", func() store.EngineStats { return *sys.StoreStats().Instances },
		func(i int) error { return sys.Annotate(ids[i%len(ids)], "owner", fmt.Sprintf("note %d", i)) })
}

// TestMemoryModeBoundsRAM: a System without a DataDir runs the same
// journals as one with it, on an in-memory file system, so a long run
// rotates and folds there too. After each settled fold the journals'
// bytes in RAM — active segment, sealed backlog and snapshot — stay
// under twice the snapshot plus one segment, and every instance and
// every timeline page equals that of a disk-mode twin driven through
// the same moves.
func TestMemoryModeBoundsRAM(t *testing.T) {
	const moves, population, segMax = 10000, 5, 64 << 10
	opts := func(dir string) Options {
		return Options{
			DataDir:           dir,
			PersistInstances:  true,
			Clock:             vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC)),
			SegmentMaxBytes:   segMax,
			MaxEventsInMemory: 8,
		}
	}
	mem := newSystem(t, opts(""))
	disk := newSystem(t, opts(t.TempDir()))
	both := func(fn func(sys *System) error) {
		t.Helper()
		for _, sys := range []*System{mem, disk} {
			if err := fn(sys); err != nil {
				t.Fatal(err)
			}
		}
	}
	model := &Model{URI: "urn:gelee:models:ram", Name: "ram",
		Phases: []*Phase{{ID: "a", Name: "A"}, {ID: "b", Name: "B"}, {ID: "c", Name: "C"}}}
	both(func(sys *System) error { return sys.DefineModel("", model) })
	var ids []string
	for i := 0; i < population; i++ {
		ref := Ref{URI: fmt.Sprintf("urn:ram:r%d", i), Type: "url"}
		var id string
		both(func(sys *System) error {
			snap, err := sys.Instantiate(model.URI, ref, "owner", nil)
			if id != "" && snap.ID != id {
				return fmt.Errorf("twins diverged: instance %s vs %s", snap.ID, id)
			}
			id = snap.ID
			return err
		})
		ids = append(ids, id)
	}

	// settledBytes waits out the folds the last rotations asked for,
	// then reports the bytes both in-memory journals hold and their
	// bound.
	settledBytes := func() (held, bound int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := mem.StoreStats()
			if st.Engine.SealedSegments == 0 && st.Instances.SealedSegments == 0 {
				for _, es := range []store.EngineStats{st.Engine, *st.Instances} {
					held += es.ActiveBytes + es.SealedBytes + es.SnapshotBytes
					bound += 2*es.SnapshotBytes + segMax
				}
				return held, bound
			}
			if time.Now().After(deadline) {
				t.Fatalf("sealed segments never folded: %+v", st.Instances)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	phases := model.PhaseIDs()
	for i := 0; i < moves; i++ {
		to := phases[(i/population+1)%len(phases)]
		both(func(sys *System) error {
			_, err := sys.AdvanceSummary(ids[i%population], to, "owner", AdvanceOptions{})
			return err
		})
		if (i+1)%2000 == 0 {
			if held, bound := settledBytes(); held > bound {
				t.Fatalf("after %d moves the in-memory journals hold %d bytes, bound %d", i+1, held, bound)
			}
		}
	}
	inst := mem.StoreStats().Instances
	if inst.Rotations == 0 || inst.Folds == 0 || inst.ArchivesWritten == 0 {
		t.Fatalf("memory mode never rotated, folded and archived: %+v", inst)
	}

	if !reflect.DeepEqual(snapshotJSON(t, mem), snapshotJSON(t, disk)) {
		t.Fatal("memory-mode instances differ from the disk-mode twin's")
	}
	pages := func(sys *System, id string) []string {
		var out []string
		for after := 0; ; {
			page, err := sys.Events(id, after, 100)
			if err != nil {
				t.Fatal(err)
			}
			data, _ := json.Marshal(page)
			out = append(out, string(data))
			if len(page.Events) == 0 {
				return out
			}
			after = page.Events[len(page.Events)-1].Seq
		}
	}
	for _, id := range ids {
		got, want := pages(mem, id), pages(disk, id)
		if len(got) < moves/population/100 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: memory-mode timeline (%d pages) differs from the disk-mode twin's (%d pages)", id, len(got), len(want))
		}
	}
}
