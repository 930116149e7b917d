package runtime

import (
	"encoding/json"
	"errors"
	"iter"
	"strings"
	"sync"
	"testing"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/shardkey"
)

// buildRichState drives every kind of instance state the snapshot must
// capture: happy-path advances with actions, a deviation + reopen, a
// pending proposal, bindings, annotations, terminal and failed
// executions. Returns the instance ids in creation order.
func buildRichState(t testing.TB, e *persistEnv) []string {
	t.Helper()
	owner := "owner"
	a := e.instantiate(t)
	if err := e.rt.BindParams(a.ID, owner, "http://www.liquidpub.org/a/chr", map[string]string{"mode": "open"}); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"elaboration", "internalreview", "finalassembly"} {
		if _, err := e.rt.Advance(a.ID, phase, owner, AdvanceOptions{Annotation: "to " + phase}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.rt.Annotate(a.ID, owner, "waiting on partner"); err != nil {
		t.Fatal(err)
	}

	b := e.instantiate(t)
	if _, err := e.rt.Advance(b.ID, "publication", owner, AdvanceOptions{Annotation: "deviation"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(b.ID, "accepted", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(b.ID, "elaboration", owner, AdvanceOptions{Annotation: "reopen"}); err != nil {
		t.Fatal(err)
	}

	c := e.instantiate(t)
	v2 := fig1(t)
	v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival"})
	if err := e.rt.ProposeChange(c.ID, "designer", v2, "add archival"); err != nil {
		t.Fatal(err)
	}
	return []string{a.ID, b.ID, c.ID}
}

// emitFunc adapts one callback to SnapshotWriter: the head's model
// records and the instance records alike, in write order.
type emitFunc func(id string, data []byte) error

func (f emitFunc) Head(key string, data []byte) error { return f(key, data) }
func (f emitFunc) Emit(id string, data []byte) error  { return f(id, data) }

// isModelRec reports whether a captured record is a RecModel body — a
// snapshot head entry or a journal's shared record.
func isModelRec(r capturedRec) bool {
	var rec struct {
		Op RecordOp `json:"op"`
	}
	return json.Unmarshal(r.data, &rec) == nil && rec.Op == RecModel
}

// emitAll collects every snapshot record via EmitSnapshots.
func emitAll(t testing.TB, rt *Runtime) []capturedRec {
	t.Helper()
	var recs []capturedRec
	if _, err := rt.EmitSnapshots(emitFunc(func(id string, data []byte) error {
		recs = append(recs, capturedRec{id: id, data: append([]byte(nil), data...)})
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSnapshotRecordRoundTrip: applying only the RecSnapshot images —
// no mutation records at all — must rebuild byte-identical observable
// state: snapshots, models, summaries, indexes, counters, phase stats.
func TestSnapshotRecordRoundTrip(t *testing.T) {
	e := newPersistEnv(t)
	ids := buildRichState(t, e)

	rt2 := New2(t, e)
	for _, r := range emitAll(t, e.rt) {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("apply snapshot: %v", err)
		}
	}
	rec := rt2.FinishRecovery()
	if rec.Instances != len(ids) || rec.Records != int64(len(ids)) {
		t.Fatalf("recovery stats: %+v, want %d instances from %d records", rec, len(ids), len(ids))
	}
	assertSameState(t, e.rt, rt2)
	now := e.clock.Now()
	for _, id := range ids {
		w, _ := e.rt.PhaseStats(id, now)
		g, ok := rt2.PhaseStats(id, now)
		if !ok || mustJSON(t, w) != mustJSON(t, g) {
			t.Fatalf("phase stats of %s diverged:\nlive      %s\nrecovered %s", id, mustJSON(t, w), mustJSON(t, g))
		}
	}
}

// New2 builds a fresh runtime with the env's config shape, journal-less.
func New2(t testing.TB, e *persistEnv) *Runtime {
	t.Helper()
	rt, err := New(Config{
		Registry:    testActions(t),
		Invoker:     e.inv,
		Clock:       e.clock,
		SyncActions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSnapshotThenTailReplay is the fold shape end to end at the
// runtime layer: snapshot the population mid-history, keep mutating —
// reports on pre-snapshot executions, accepting a pre-snapshot
// proposal, more advances — then replay snapshot + only the post-
// snapshot records and expect identical state.
func TestSnapshotThenTailReplay(t *testing.T) {
	e := newPersistEnv(t)
	ids := buildRichState(t, e)
	owner := "owner"

	snaps := emitAll(t, e.rt)
	e.sink.mu.Lock()
	cut := len(e.sink.recs)
	e.sink.mu.Unlock()

	// Tail mutations touching state the snapshot carried: the pending
	// proposal is accepted, instance A advances further and annotates,
	// a new instance is born entirely in the tail.
	if _, err := e.rt.AcceptChange(ids[2], owner, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(ids[0], "eureview", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.Annotate(ids[0], owner, "post-snapshot note"); err != nil {
		t.Fatal(err)
	}
	d := e.instantiate(t)
	if _, err := e.rt.Advance(d.ID, "elaboration", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}

	rt2 := New2(t, e)
	for _, r := range snaps {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("apply snapshot: %v", err)
		}
	}
	e.sink.mu.Lock()
	tail := append([]capturedRec(nil), e.sink.recs[cut:]...)
	e.sink.mu.Unlock()
	for _, r := range tail {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("apply tail record: %v", err)
		}
	}
	rt2.FinishRecovery()
	assertSameState(t, e.rt, rt2)
}

// TestSnapshotSurvivesRingTruncation: an instance whose in-memory ring
// dropped old events must snapshot and recover with the same retained
// window, gapless numbering and unchanged aggregates — and a recovery
// under a smaller cap re-truncates like the live path would.
func TestSnapshotSurvivesRingTruncation(t *testing.T) {
	sink := &captureSink{}
	e := newPersistEnvWith(t, sink, func(cfg *Config) { cfg.MaxEventsInMemory = 16 })
	owner := "owner"
	snap := e.instantiate(t)
	for i := 0; i < 60; i++ {
		if err := e.rt.Annotate(snap.ID, owner, "note"); err != nil {
			t.Fatal(err)
		}
	}
	sum, _ := e.rt.Summary(snap.ID)
	if sum.TruncatedEvents == 0 {
		t.Fatal("test needs truncation to have happened")
	}

	rt2, err := New(Config{Registry: testActions(t), Clock: e.clock, SyncActions: true, MaxEventsInMemory: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range emitAll(t, e.rt) {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	rt2.FinishRecovery()
	assertSameState(t, e.rt, rt2)

	// Smaller cap on recovery: the restored ring shrinks accordingly.
	rt3, err := New(Config{Registry: testActions(t), Clock: e.clock, SyncActions: true, MaxEventsInMemory: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range emitAll(t, e.rt) {
		if err := rt3.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := rt3.Summary(snap.ID)
	if got.Events != sum.Events {
		t.Fatalf("total event count changed under smaller cap: %d vs %d", got.Events, sum.Events)
	}
	if ring, _ := rt3.Instance(snap.ID); len(ring.Events) > 5 {
		t.Fatalf("ring not re-truncated under smaller cap: %d events retained", len(ring.Events))
	}
	// The events the smaller ring dropped stay readable from the spill.
	if page, err := rt3.Events(snap.ID, 0, 0); err != nil || len(page.Events) != sum.Events {
		t.Fatalf("history under smaller cap: %d events (want %d), err %v", len(page.Events), sum.Events, err)
	}
}

// newPersistEnvWith is newPersistEnv with a config hook.
func newPersistEnvWith(t testing.TB, sink *captureSink, mutate func(*Config)) *persistEnv {
	t.Helper()
	e := newPersistEnv(t)
	cfg := Config{
		Registry:    testActions(t),
		Invoker:     e.inv,
		Clock:       e.clock,
		SyncActions: true,
		Journal:     sink,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.rt = rt
	e.inv.rt = rt
	e.sink = sink
	return e
}

// TestParallelReplayEquivalence shards the captured journal across
// GOMAXPROCS-style appliers — per-instance order preserved, instances
// interleaved arbitrarily, exactly how store.Instances.ReplayParallel
// drives ApplyJournal — and expects state identical to the sequential
// replay. Run under -race this is the concurrency proof for the
// replay path.
func TestParallelReplayEquivalence(t *testing.T) {
	e := newPersistEnv(t)
	buildRichState(t, e)
	// A wider population so every worker has real work.
	owner := "owner"
	for i := 0; i < 24; i++ {
		s := e.instantiate(t)
		for _, phase := range []string{"elaboration", "internalreview"} {
			if _, err := e.rt.Advance(s.ID, phase, owner, AdvanceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	seq := New2(t, e)
	e.sink.replayInto(t, seq)

	par := New2(t, e)
	const workers = 8
	var lanes []chan capturedRec
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(e.sink.recs)+workers)
	start := func() {
		lanes = make([]chan capturedRec, workers)
		for i := range lanes {
			lanes[i] = make(chan capturedRec, 64)
			wg.Add(1)
			go func(ch chan capturedRec) {
				defer wg.Done()
				for r := range ch {
					if err := par.ApplyJournal(r.id, r.data); err != nil {
						errs <- err
						return
					}
				}
			}(lanes[i])
		}
	}
	drain := func() {
		for _, ch := range lanes {
			close(ch)
		}
		wg.Wait()
	}
	e.sink.mu.Lock()
	recs := append([]capturedRec(nil), e.sink.recs...)
	e.sink.mu.Unlock()
	start()
	for _, r := range recs {
		if isModelRec(r) {
			// A shared record is a barrier, as in the store's fan-out.
			drain()
			if err := par.ApplyJournal(r.id, r.data); err != nil {
				t.Fatal(err)
			}
			start()
			continue
		}
		lanes[shardkey.Index(r.id, workers)] <- r
	}
	drain()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	par.FinishRecovery()
	assertSameState(t, seq, par)
}

// TestEmitSnapshotsDuringLiveTraffic races EmitSnapshots against
// concurrent mutations and instantiations: no deadlock, no race, and
// every emitted record must decode and apply cleanly.
func TestEmitSnapshotsDuringLiveTraffic(t *testing.T) {
	e := newPersistEnv(t)
	owner := "owner"
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, e.instantiate(t).ID)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ { // bounded: the emitter must not be starved on small boxes
				select {
				case <-stop:
					return
				default:
				}
				if i%7 == 0 {
					e.instantiate(t)
					continue
				}
				if err := e.rt.Annotate(ids[(w*5+i)%len(ids)], owner, "churn"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for round := 0; round < 5; round++ {
		rt2 := New2(t, e)
		if _, err := e.rt.EmitSnapshots(emitFunc(func(id string, data []byte) error {
			return rt2.ApplyJournal(id, append([]byte(nil), data...))
		})); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotRecordRejectsDuplicates: a snapshot record for an id the
// replay already knows is corruption, not something to merge.
func TestSnapshotRecordRejectsDuplicates(t *testing.T) {
	e := newPersistEnv(t)
	e.instantiate(t)
	recs := emitAll(t, e.rt)
	rt2 := New2(t, e)
	for _, r := range recs {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	last := recs[len(recs)-1]
	err := rt2.ApplyJournal(last.id, last.data)
	if err == nil || !strings.Contains(err.Error(), "existing") {
		t.Fatalf("duplicate snapshot accepted: %v", err)
	}
}

// memHistory is an in-memory History; fail makes ArchiveHistory fail.
type memHistory struct {
	mu       sync.Mutex
	archives []map[string][]byte
	fail     error
}

func (h *memHistory) ArchiveHistory(batches iter.Seq2[string, []byte]) (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fail != nil {
		return 0, h.fail
	}
	a := make(map[string][]byte)
	for id, data := range batches {
		a[id] = data
	}
	h.archives = append(h.archives, a)
	return uint64(len(h.archives)), nil
}

func (h *memHistory) ReadHistory(n uint64, fn func(id string, data []byte) error) error {
	h.mu.Lock()
	a := h.archives[n-1]
	h.mu.Unlock()
	for id, data := range a {
		if err := fn(id, data); err != nil {
			return err
		}
	}
	return nil
}

// TestEmitSnapshotsArchivesSpillAfterInstall: a fold archives the
// spill before emitting, but the spill leaves memory only when the
// installed hook runs; a failed archive write fails the fold and
// changes nothing. Pages read the same at every step, and replaying
// the images alone rebuilds them.
func TestEmitSnapshotsArchivesSpillAfterInstall(t *testing.T) {
	hist := &memHistory{}
	e := newEnvWithConfig(t, func(c *Config) { c.MaxEventsInMemory = 8; c.History = hist })
	id := e.instantiate(t).ID
	annotateN(t, e.rt, id, 40)
	page := func(rt *Runtime) string {
		t.Helper()
		p, err := rt.Events(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, p)
	}
	want := page(e.rt)
	inMemory := e.rt.RuntimeStats().EventsInMemory

	hist.fail = errors.New("disk full")
	if _, err := e.rt.EmitSnapshots(emitFunc(func(string, []byte) error { return nil })); !errors.Is(err, hist.fail) {
		t.Fatalf("fold over a failing archive = %v", err)
	}
	hist.fail = nil
	var recs []capturedRec
	installed, err := e.rt.EmitSnapshots(emitFunc(func(id string, data []byte) error {
		recs = append(recs, capturedRec{id: id, data: append([]byte(nil), data...)})
		return nil
	}))
	if err != nil || installed == nil {
		t.Fatalf("fold = %v (installed hook %t)", err, installed != nil)
	}
	if got := e.rt.RuntimeStats().EventsInMemory; got != inMemory || page(e.rt) != want {
		t.Fatalf("spill left memory before install: %d events in memory, want %d", got, inMemory)
	}
	installed()
	sum, _ := e.rt.Summary(id)
	if got := e.rt.RuntimeStats().EventsInMemory; got != int64(sum.Events-sum.TruncatedEvents) {
		t.Fatalf("after install: %d events in memory, want the ring's %d", got, sum.Events-sum.TruncatedEvents)
	}
	if got := page(e.rt); got != want {
		t.Fatalf("page changed across the fold:\nbefore %s\nafter  %s", want, got)
	}

	rt2, err := New(Config{Registry: testActions(t), MaxEventsInMemory: 8, History: hist})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	if got := page(rt2); got != want {
		t.Fatalf("replayed page differs:\nlive     %s\nreplayed %s", want, got)
	}
}
