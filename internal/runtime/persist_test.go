package runtime

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/vclock"
)

// captureSink is an in-memory Journal: it keeps every record's encoded
// form in emit order, which for one instance is mutation order.
type captureSink struct {
	mu   sync.Mutex
	recs []capturedRec
	err  error // when set, Record fails
}

type capturedRec struct {
	id   string
	data []byte
}

func (s *captureSink) Record(rec *JournalRecord) error {
	data, err := rec.Encode()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.recs = append(s.recs, capturedRec{id: rec.Instance, data: data})
	return nil
}

// replayInto feeds every captured record into a fresh runtime and
// finishes the recovery.
func (s *captureSink) replayInto(t testing.TB, rt *Runtime) RecoveryStats {
	t.Helper()
	s.mu.Lock()
	recs := append([]capturedRec(nil), s.recs...)
	s.mu.Unlock()
	for _, r := range recs {
		if err := rt.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	return rt.FinishRecovery()
}

// persistEnv is the journaling twin of env.
type persistEnv struct {
	env
	sink *captureSink
}

func newPersistEnv(t testing.TB) *persistEnv {
	t.Helper()
	sink := &captureSink{}
	inv := &recordingInvoker{status: actionlib.StatusCompleted}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{
		Registry:    testActions(t),
		Invoker:     inv,
		Clock:       clock,
		SyncActions: true,
		Journal:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt
	return &persistEnv{env: env{rt: rt, inv: inv, clock: clock}, sink: sink}
}

// recover builds a fresh runtime with the same config shape (optionally
// customized) and replays the captured journal into it.
func (e *persistEnv) recover(t testing.TB, mutate func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		Registry:    testActions(t),
		Invoker:     e.inv,
		Clock:       e.clock,
		SyncActions: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.sink.replayInto(t, rt2)
	return rt2
}

// mustJSON marshals for deep comparison; Snapshot keeps its model out
// of JSON, so models are compared separately by fingerprint.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertSameState compares the full observable state of two runtimes:
// snapshots (histories, executions, pending changes, bindings), model
// fingerprints, summaries and index-backed queries.
func assertSameState(t testing.TB, want, got *Runtime) {
	t.Helper()
	ws, gs := want.Instances(), got.Instances()
	if len(ws) != len(gs) {
		t.Fatalf("population: %d vs %d", len(ws), len(gs))
	}
	for i := range ws {
		if w, g := mustJSON(t, ws[i]), mustJSON(t, gs[i]); w != g {
			t.Fatalf("snapshot %s diverged after replay:\nlive      %s\nrecovered %s", ws[i].ID, w, g)
		}
		if ws[i].Model.Fingerprint() != gs[i].Model.Fingerprint() {
			t.Fatalf("model of %s diverged after replay", ws[i].ID)
		}
		if w, g := mustJSON(t, ws[i].Model), mustJSON(t, gs[i].Model); w != g {
			t.Fatalf("model JSON of %s diverged", ws[i].ID)
		}
	}
	if w, g := mustJSON(t, want.Summaries()), mustJSON(t, got.Summaries()); w != g {
		t.Fatalf("summaries diverged:\nlive      %s\nrecovered %s", w, g)
	}
	// Index parity: every resource and model URI answers identically.
	seen := map[string]bool{}
	for _, s := range ws {
		if !seen["r"+s.Resource.URI] {
			seen["r"+s.Resource.URI] = true
			if w, g := mustJSON(t, want.ByResource(s.Resource.URI)), mustJSON(t, got.ByResource(s.Resource.URI)); w != g {
				t.Fatalf("ByResource(%s) diverged", s.Resource.URI)
			}
		}
		if !seen["m"+s.ModelURI] {
			seen["m"+s.ModelURI] = true
			if w, g := mustJSON(t, want.ByModelURI(s.ModelURI)), mustJSON(t, got.ByModelURI(s.ModelURI)); w != g {
				t.Fatalf("ByModelURI(%s) diverged", s.ModelURI)
			}
		}
	}
	wst, gst := want.RuntimeStats(), got.RuntimeStats()
	if wst.Instances != gst.Instances || wst.Invocations != gst.Invocations ||
		wst.ResourceKeys != gst.ResourceKeys || wst.ModelKeys != gst.ModelKeys ||
		wst.EventsInMemory != gst.EventsInMemory || wst.EventsTruncated != gst.EventsTruncated {
		t.Fatalf("stats diverged:\nlive      %+v\nrecovered %+v", wst, gst)
	}
}

// TestReplayRebuildsEveryMutationKind drives every mutating verb and
// expects a journal replay to rebuild byte-identical observable state:
// token positions, histories, executions, pending changes, counters,
// indexes.
func TestReplayRebuildsEveryMutationKind(t *testing.T) {
	e := newPersistEnv(t)
	owner := "owner"

	// Instance A: full happy path with actions, annotations, bindings.
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

	// Instance B: deviation, completion, reopening.
	b := e.instantiate(t)
	if _, err := e.rt.Advance(b.ID, "publication", owner, AdvanceOptions{
		Annotation:   "deadline deviation",
		CallBindings: map[string]map[string]string{"http://www.liquidpub.org/a/post": {"site": "example.org"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(b.ID, "accepted", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(b.ID, "elaboration", owner, AdvanceOptions{Annotation: "reopen"}); err != nil {
		t.Fatal(err)
	}

	// Instance C: pending proposal left undecided.
	c := e.instantiate(t)
	v2 := fig1(t)
	v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival"})
	if err := e.rt.ProposeChange(c.ID, "designer", v2, "v2 with archival"); err != nil {
		t.Fatal(err)
	}

	// Instance D: proposal accepted with a landing, then a second
	// proposal rejected, then an owner-initiated model switch.
	d := e.instantiate(t)
	if _, err := e.rt.Advance(d.ID, "elaboration", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.ProposeChange(d.ID, "designer", v2, "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.AcceptChange(d.ID, owner, "archival"); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.ProposeChange(d.ID, "designer", fig1(t), "back to v1"); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.RejectChange(d.ID, owner, "not now"); err != nil {
		t.Fatal(err)
	}
	other, err := core.NewModel("urn:gelee:models:other", "Other lifecycle").
		Phase("draft", "Draft").
		FinalPhase("done", "Done").
		Initial("draft").Transition("draft", "done").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.SwitchModel(d.ID, owner, other, "draft"); err != nil {
		t.Fatal(err)
	}

	rt2 := e.recover(t, nil)
	assertSameState(t, e.rt, rt2)

	// Pending proposal survives and is decidable after recovery.
	if snap, _ := rt2.Instance(c.ID); snap.Pending == nil {
		t.Fatal("pending proposal lost in replay")
	}
	if _, err := rt2.AcceptChange(c.ID, owner, ""); err != nil {
		t.Fatal(err)
	}

	// Fresh ids after recovery never collide with replayed ones.
	fresh, err := rt2.Instantiate(fig1(t), wikiRef(), owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Snapshot{a, b, c, d} {
		if fresh.ID == s.ID {
			t.Fatalf("recovered runtime reissued id %s", fresh.ID)
		}
	}
	if _, err := rt2.Advance(fresh.ID, "elaboration", owner, AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGaplessSeqsAndPhaseStats checks per-instance event seqs
// survive replay gapless and the incremental phase stats rebuild.
func TestReplayGaplessSeqsAndPhaseStats(t *testing.T) {
	e := newPersistEnv(t)
	snap := e.instantiate(t)
	e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	e.clock.Advance(48 * time.Hour)
	e.rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{})
	e.clock.Advance(24 * time.Hour)
	e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	e.clock.Advance(12 * time.Hour)

	rt2 := e.recover(t, nil)
	page, ok := rt2.Events(snap.ID, 0, 0)
	if !ok {
		t.Fatal("instance missing after replay")
	}
	for i, ev := range page.Events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d (gap)", i, ev.Seq)
		}
	}
	now := e.clock.Now()
	want, _ := e.rt.PhaseStats(snap.ID, now)
	got, ok := rt2.PhaseStats(snap.ID, now)
	if !ok || !reflect.DeepEqual(want, got) {
		t.Fatalf("phase stats diverged: live %v recovered %v", want, got)
	}
	if got["elaboration"].Entered != 2 || got["elaboration"].Residence != 60*time.Hour {
		t.Fatalf("elaboration stats = %+v", got["elaboration"])
	}
	if got["internalreview"].Entered != 1 || got["internalreview"].Residence != 24*time.Hour {
		t.Fatalf("internalreview stats = %+v", got["internalreview"])
	}
}

// TestReplayPendingInvocationRoutable: an invocation that was still
// in flight at the crash is routable after recovery — its callback
// lands on the recovered instance and completes it.
func TestReplayPendingInvocationRoutable(t *testing.T) {
	sink := &captureSink{}
	swallow := InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil }) // dispatch succeeds, never reports
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{Registry: testActions(t), Invoker: swallow, Clock: clock, SyncActions: true, Journal: sink})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "alice"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rt.InFlight(snap.ID); got != 2 {
		t.Fatalf("in flight = %d, want 2", got)
	}
	live, _ := rt.Instance(snap.ID)

	rt2, err := New(Config{Registry: testActions(t), Invoker: swallow, Clock: clock, SyncActions: true})
	if err != nil {
		t.Fatal(err)
	}
	sink.replayInto(t, rt2)
	if got := rt2.InFlight(snap.ID); got != 2 {
		t.Fatalf("recovered in flight = %d, want 2", got)
	}
	sum, _ := rt2.Summary(snap.ID)
	if sum.PendingInvocations != 2 {
		t.Fatalf("recovered pending counter = %d, want 2", sum.PendingInvocations)
	}
	// The late callback routes through the rebuilt invocation index.
	for _, ex := range live.Executions {
		if err := rt2.Report(actionlib.StatusUpdate{InvocationID: ex.InvocationID, Message: actionlib.StatusCompleted}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt2.InFlight(snap.ID); got != 0 {
		t.Fatalf("in flight after callbacks = %d", got)
	}
}

// TestReplayDispatchFailure: a failed dispatch is journaled and the
// failed-step counter rebuilds.
func TestReplayDispatchFailure(t *testing.T) {
	e := newPersistEnv(t)
	e.inv.fail = map[string]bool{"http://www.liquidpub.org/a/pdf": true}
	snap := e.instantiate(t)
	if _, err := e.rt.Advance(snap.ID, "finalassembly", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	e.rt.WaitDispatch()
	rt2 := e.recover(t, nil)
	assertSameState(t, e.rt, rt2)
	sum, _ := rt2.Summary(snap.ID)
	if sum.FailedSteps != 1 {
		t.Fatalf("recovered failed steps = %d, want 1", sum.FailedSteps)
	}
}

// TestReplayWithRingTruncation: the recovered runtime applies its own
// MaxEventsInMemory while replaying, and the counters still match the
// live runtime's (truncation never changes aggregates).
func TestReplayWithRingTruncation(t *testing.T) {
	sink := &captureSink{}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	mk := func(j Journal) *Runtime {
		rt, err := New(Config{Registry: testActions(t), Clock: clock, SyncActions: true,
			MaxEventsInMemory: 16, Journal: j,
			Invoker: InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil })})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	rt := mk(sink)
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	for i := 0; i < 60; i++ {
		if err := rt.Annotate(snap.ID, "owner", fmt.Sprintf("note %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rt2 := mk(nil)
	sink.replayInto(t, rt2)
	assertSameState(t, rt, rt2)
	want, _ := rt.Events(snap.ID, 0, 0)
	got, ok := rt2.Events(snap.ID, 0, 0)
	if !ok {
		t.Fatal("instance missing")
	}
	if want.Total != got.Total || want.OldestSeq != got.OldestSeq || len(want.Events) != len(got.Events) {
		t.Fatalf("pages diverged: live %+v recovered %+v", want, got)
	}
	if got.OldestSeq <= 1 {
		t.Fatal("test did not exercise truncation")
	}
}

// failureView captures everything a reader can learn about a runtime:
// full snapshots, every event page, the cockpit aggregate, summaries,
// the resource and model indexes for the given URIs, the invocation
// routing index and the admin stats. Two read-side numbers are left
// out: the journal error count, which a failed append must raise, and
// the indexed-query counter, which the capture's own index reads bump.
func failureView(t *testing.T, e *persistEnv, uris []string) string {
	t.Helper()
	rt := e.rt
	st := rt.RuntimeStats()
	st.Persistence.RecordErrors = 0
	st.PopulationIndex.IndexedQueries = 0
	v := struct {
		Stats     Stats
		Instances []Snapshot
		Events    map[string]EventPage
		Aggregate Aggregate
		Summaries []Summary
		Indexed   map[string][][]Snapshot
		Routes    []string
	}{Stats: st, Instances: rt.Instances(), Events: map[string]EventPage{},
		Aggregate: rt.Aggregate(e.clock.Now()), Summaries: rt.Summaries(),
		Indexed: map[string][][]Snapshot{}}
	for _, snap := range v.Instances {
		v.Events[snap.ID], _ = rt.Events(snap.ID, 0, 0)
	}
	for _, uri := range uris {
		v.Indexed[uri] = [][]Snapshot{rt.ByResource(uri), rt.ByModelURI(uri)}
	}
	for _, sh := range rt.inv {
		sh.mu.RLock()
		for id := range sh.m {
			v.Routes = append(v.Routes, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(v.Routes)
	return mustJSON(t, v)
}

// TestJournalFailureSemantics: unacknowledged means absent. For each
// of the ten mutating verbs, a failing sink makes the verb return the
// sink's error and leaves no trace a reader could see — no event,
// execution, index entry, routing entry, aggregate or stats change —
// and neither the observer nor the invoker hears of it.
func TestJournalFailureSemantics(t *testing.T) {
	notify := "http://www.liquidpub.org/a/notify"
	otherRes := "http://wiki.liquidpub.org/D9.9"
	switchURI := "urn:gelee:models:eu-deliverable-fork"
	cases := []struct {
		verb string
		// call runs the verb on the prepared instance id, whose
		// pending invocation is inv.
		call func(t *testing.T, e *persistEnv, id, inv string) error
		// noCaller marks a verb that runs on the dispatch path and so
		// has no caller to hand the error to.
		noCaller bool
	}{
		{verb: "instantiate", call: func(t *testing.T, e *persistEnv, _, _ string) error {
			_, err := e.rt.Instantiate(fig1(t), resource.Ref{URI: otherRes, Type: "mediawiki"}, "owner",
				map[string]map[string]string{notify: {"reviewers": "dora"}})
			return err
		}},
		{verb: "advance", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			_, err := e.rt.Advance(id, "finalassembly", "owner", AdvanceOptions{Annotation: "on to assembly"})
			return err
		}},
		{verb: "annotate", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			return e.rt.Annotate(id, "owner", "a note")
		}},
		{verb: "bind", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			return e.rt.BindParams(id, "owner", notify, map[string]string{"reviewers": "carol"})
		}},
		{verb: "report", call: func(t *testing.T, e *persistEnv, _, inv string) error {
			return e.rt.Report(actionlib.StatusUpdate{InvocationID: inv, Message: actionlib.StatusCompleted})
		}},
		{verb: "dispatch-fail", noCaller: true, call: func(t *testing.T, e *persistEnv, id, inv string) error {
			e.rt.failDispatch(id, inv, errors.New("endpoint unreachable"))
			return nil
		}},
		{verb: "propose", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			return e.rt.ProposeChange(id, "designer", fig1(t), "back to v1")
		}},
		{verb: "accept", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			_, err := e.rt.AcceptChange(id, "owner", "accepted")
			return err
		}},
		{verb: "reject", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			return e.rt.RejectChange(id, "owner", "not now")
		}},
		{verb: "switch", call: func(t *testing.T, e *persistEnv, id, _ string) error {
			m := fig1(t)
			m.URI = switchURI
			_, err := e.rt.SwitchModel(id, "owner", m, "accepted")
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.verb, func(t *testing.T) {
			e := newPersistEnv(t)
			e.inv.status = "" // invocations stay pending
			var observed atomic.Int64
			e.rt.cfg.Observer = func(string, Event) { observed.Add(1) }

			// A healthy journal takes the instance into internal review
			// (two pending invocations) with a change proposal waiting.
			snap := e.instantiate(t)
			for _, to := range []string{"elaboration", "internalreview"} {
				if _, err := e.rt.Advance(snap.ID, to, "owner", AdvanceOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.rt.ProposeChange(snap.ID, "designer", fig1WithoutInternalReview(t), "v2"); err != nil {
				t.Fatal(err)
			}
			cur, _ := e.rt.Instance(snap.ID)
			if len(cur.Executions) == 0 || cur.Executions[0].Terminal {
				t.Fatalf("setup left no pending invocation: %+v", cur.Executions)
			}
			inv := cur.Executions[0].InvocationID
			uris := []string{snap.Resource.URI, otherRes, snap.ModelURI, switchURI}
			before := failureView(t, e, uris)
			errsBefore := e.rt.RuntimeStats().Persistence.RecordErrors
			invokedBefore := len(e.inv.invocations())
			observed.Store(0)

			diskGone := errors.New("disk gone")
			e.sink.err = diskGone
			err := c.call(t, e, snap.ID, inv)
			e.sink.err = nil

			if !c.noCaller && !errors.Is(err, diskGone) {
				t.Fatalf("%s on a failing journal returned %v, want the sink's error", c.verb, err)
			}
			if got := e.rt.RuntimeStats().Persistence.RecordErrors; got != errsBefore+1 {
				t.Fatalf("journal errors = %d, want %d", got, errsBefore+1)
			}
			if after := failureView(t, e, uris); after != before {
				t.Fatalf("failed %s left a trace in memory:\nbefore %s\nafter  %s", c.verb, before, after)
			}
			if n := observed.Load(); n != 0 {
				t.Fatalf("observer saw %d events of a failed %s", n, c.verb)
			}
			if n := len(e.inv.invocations()) - invokedBefore; n != 0 {
				t.Fatalf("invoker saw %d dispatches of a failed %s", n, c.verb)
			}
		})
	}
}

// TestCodecEquivalence pins the hand-rolled record encoder against
// encoding/json for every record shape: both must decode to the same
// record.
func TestCodecEquivalence(t *testing.T) {
	now := time.Date(2026, 7, 29, 10, 0, 0, 123456789, time.UTC)
	model := fig1(t)
	ref := wikiRef()
	recs := []*JournalRecord{
		{Op: RecInstantiate, Instance: "li-000001", Seq: 1, Model: model, ModelURI: model.URI,
			Resource: &ref, Owner: "owner", CreatedAt: now,
			Unresolved: []string{"urn:a"}, Bindings: map[string]map[string]string{"urn:a": {"k": "v"}},
			Events: []Event{{Seq: 1, Time: now, Kind: EventCreated, Actor: "owner", Detail: `model "q" on x`}}},
		{Op: RecAdvance, Instance: "li-000001", To: "elaboration",
			Events: []Event{
				{Seq: 2, Time: now, Kind: EventReopened, Actor: "o", Phase: "elaboration"},
				{Seq: 3, Time: now, Kind: EventPhaseEntered, Actor: "o", Phase: "elaboration", FromPhase: "accepted", Deviation: true, Detail: "note\nline"},
				{Seq: 4, Time: now, Kind: EventActionStarted, Phase: "elaboration", ActionURI: "urn:a", Invocation: "inv-000007", Detail: "Do"},
			},
			Executions: []ActionExecution{
				{InvocationID: "inv-000007", ActionURI: "urn:a", ActionName: "Do", Phase: "elaboration", StartedAt: now},
				{InvocationID: "inv-000008", ActionURI: "urn:b", ActionName: "B", Phase: "elaboration", StartedAt: now,
					Terminal: true, LastStatus: "failed", LastDetail: "no impl", DispatchErr: "no impl", Updates: 0},
			},
			State: StateActive, Current: "elaboration"},
		{Op: RecAnnotate, Instance: "li-000002",
			Events: []Event{{Seq: 9, Time: now, Kind: EventAnnotated, Actor: "o", Detail: "unicode — 東京 \t"}}},
		{Op: RecBind, Instance: "li-000002", Bindings: map[string]map[string]string{"urn:a": {"mode": "open"}}},
		{Op: RecReport, Instance: "li-000001", Invocation: "inv-000007", Status: "completed", Detail: "ok", Terminal: true,
			Events: []Event{{Seq: 5, Time: now, Kind: EventActionStatus, Invocation: "inv-000007", Status: "completed"}}},
		{Op: RecDispatchFail, Instance: "li-000001", Invocation: "inv-000009", Detail: "unreachable",
			Events: []Event{{Seq: 6, Time: now, Kind: EventActionStatus, Status: "failed"}}},
		{Op: RecPropose, Instance: "li-000003", Proposer: "designer", ProposedAt: now, Note: "v2", Model: model, DiffSummary: "+archival",
			Events: []Event{{Seq: 2, Time: now, Kind: EventChangeProposed}}},
		{Op: RecAccept, Instance: "li-000003", Landing: "archival", State: StateCompleted, Current: "archival", CompletedAt: now,
			Events: []Event{{Seq: 3, Time: now, Kind: EventChangeApplied}, {Seq: 4, Time: now, Kind: EventCompleted}}},
		{Op: RecReject, Instance: "li-000003",
			Events: []Event{{Seq: 5, Time: now, Kind: EventChangeRejected, Detail: "no"}}},
		{Op: RecSwitch, Instance: "li-000004", Landing: "draft", Proposer: "o", Model: model, ModelURI: "urn:other",
			State: StateActive, Current: "draft",
			Events: []Event{{Seq: 7, Time: now, Kind: EventChangeApplied}}},
	}
	for _, rec := range recs {
		fast, err := rec.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", rec.Op, err)
		}
		std, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var fromFast, fromStd JournalRecord
		if err := json.Unmarshal(fast, &fromFast); err != nil {
			t.Fatalf("%s: decode fast %s: %v", rec.Op, fast, err)
		}
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatal(err)
		}
		if f, s := mustJSON(t, fromFast), mustJSON(t, fromStd); f != s {
			t.Fatalf("%s: codec divergence:\nfast %s\nstd  %s", rec.Op, f, s)
		}
	}
}
