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
// no Close — and tears the active segment's tail for good measure. The
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
	data, _ := json.Marshal(sys2.Summaries())
	if err := json.Unmarshal(data, &sums); err != nil || len(sums) != len(ids) {
		t.Fatalf("summaries after restart: %d, want %d", len(sums), len(ids))
	}
}
