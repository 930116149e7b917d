package runtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/vclock"
)

// testActions builds a registry with the Fig. 1 action types implemented
// for the "mediawiki" and "gdoc" resource types.
func testActions(t testing.TB) *actionlib.Registry {
	t.Helper()
	reg := actionlib.NewRegistry()
	types := []actionlib.ActionType{
		{URI: "http://www.liquidpub.org/a/chr", Name: "Change Access Rights",
			Params: []core.Param{{ID: "mode", BindingTime: core.BindAny, Required: true}}},
		{URI: "http://www.liquidpub.org/a/notify", Name: "Notify Reviewers",
			Params: []core.Param{{ID: "reviewers", BindingTime: core.BindInstantiation, Required: true}}},
		{URI: "http://www.liquidpub.org/a/pdf", Name: "Generate PDF"},
		{URI: "http://www.liquidpub.org/a/post", Name: "Post On Web Site",
			Params: []core.Param{{ID: "site", BindingTime: core.BindCall, Required: true}}},
	}
	for _, at := range types {
		if err := reg.RegisterType(at); err != nil {
			t.Fatal(err)
		}
		for _, rt := range []string{"mediawiki", "gdoc"} {
			err := reg.RegisterImplementation(actionlib.Implementation{
				TypeURI: at.URI, ResourceType: rt,
				Endpoint: "local://" + rt + strings.TrimPrefix(at.URI, "http://www.liquidpub.org"),
				Protocol: actionlib.ProtocolLocal,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return reg
}

// fig1 is the paper's Fig. 1 model (same shape as in package core tests).
func fig1(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.NewModel("urn:gelee:models:eu-deliverable", "EU Project deliverable lifecycle").
		Version("1.0", "lpAdmin", time.Date(2008, 7, 8, 0, 0, 0, 0, time.UTC)).
		Phase("elaboration", "Elaboration").DueIn(10*24*time.Hour).Done().
		Phase("internalreview", "Internal Review").
		Action("http://www.liquidpub.org/a/chr", "Change access rights",
			core.Param{ID: "mode", Value: "reviewers-only", BindingTime: core.BindAny}).
		Action("http://www.liquidpub.org/a/notify", "Notify reviewers",
			core.Param{ID: "reviewers", BindingTime: core.BindInstantiation, Required: true}).
		Done().
		Phase("finalassembly", "Final Assembly").
		Action("http://www.liquidpub.org/a/pdf", "Generate PDF").
		Done().
		Phase("eureview", "EU Review").Done().
		Phase("publication", "Publication").
		Action("http://www.liquidpub.org/a/post", "Post on web site",
			core.Param{ID: "site", BindingTime: core.BindCall, Required: true}).
		Done().
		FinalPhase("accepted", "Accepted").
		FinalPhase("rejected", "Rejected").
		Initial("elaboration").
		Chain("elaboration", "internalreview", "finalassembly", "eureview", "publication", "accepted").
		Transition("internalreview", "elaboration").
		Transition("eureview", "rejected").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// recordingInvoker captures invocations and immediately reports the
// given terminal status through the runtime (synchronous round trip).
type recordingInvoker struct {
	mu     sync.Mutex
	rt     *Runtime
	status string // reported back; empty = no callback
	calls  []actionlib.Invocation
	fail   map[string]bool // action URIs whose dispatch should error
}

func (ri *recordingInvoker) Invoke(_ context.Context, inv actionlib.Invocation) error {
	ri.mu.Lock()
	ri.calls = append(ri.calls, inv)
	shouldFail := ri.fail[inv.TypeURI]
	ri.mu.Unlock()
	if shouldFail {
		return fmt.Errorf("endpoint %s unreachable", inv.Endpoint)
	}
	if ri.status != "" && ri.rt != nil {
		return ri.rt.Report(actionlib.StatusUpdate{InvocationID: inv.ID, Message: ri.status})
	}
	return nil
}

func (ri *recordingInvoker) invocations() []actionlib.Invocation {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	return append([]actionlib.Invocation(nil), ri.calls...)
}

type env struct {
	rt    *Runtime
	inv   *recordingInvoker
	clock *vclock.Fake
}

func newEnv(t testing.TB) *env {
	t.Helper()
	inv := &recordingInvoker{status: actionlib.StatusCompleted}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{
		Registry:    testActions(t),
		Invoker:     inv,
		Clock:       clock,
		SyncActions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt
	return &env{rt: rt, inv: inv, clock: clock}
}

func wikiRef() resource.Ref {
	return resource.Ref{URI: "http://wiki.liquidpub.org/D1.1", Type: "mediawiki"}
}

func (e *env) instantiate(t testing.TB) Snapshot {
	t.Helper()
	snap, err := e.rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": "alice,bob"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestInstantiate(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	if snap.State != StateActive {
		t.Fatalf("state = %s", snap.State)
	}
	if snap.Current != "" {
		t.Fatalf("token should start at BEGIN, got %q", snap.Current)
	}
	if got := snap.NextSuggested(); len(got) != 1 || got[0] != "elaboration" {
		t.Fatalf("NextSuggested = %v", got)
	}
	if len(snap.Events) != 1 || snap.Events[0].Kind != EventCreated {
		t.Fatalf("events = %+v", snap.Events)
	}
	if len(snap.Unresolved) != 0 {
		t.Fatalf("unresolved = %v, want none (all actions implemented)", snap.Unresolved)
	}
}

func TestInstantiateChecksModelAndRef(t *testing.T) {
	e := newEnv(t)
	if _, err := e.rt.Instantiate(nil, wikiRef(), "o", nil); err == nil {
		t.Fatal("nil model accepted")
	}
	bad := &core.Model{Name: "no phases"}
	if _, err := e.rt.Instantiate(bad, wikiRef(), "o", nil); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := e.rt.Instantiate(fig1(t), resource.Ref{}, "o", nil); err == nil {
		t.Fatal("invalid ref accepted")
	}
}

func TestInstantiateRejectsWrongStageBindings(t *testing.T) {
	e := newEnv(t)
	// "site" is call-bound; supplying it at instantiation must fail.
	_, err := e.rt.Instantiate(fig1(t), wikiRef(), "o",
		map[string]map[string]string{
			"http://www.liquidpub.org/a/post": {"site": "too-early"},
		})
	var be *actionlib.BindingError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want BindingError", err)
	}
}

func TestLightCouplingModelEditsDoNotLeak(t *testing.T) {
	e := newEnv(t)
	m := fig1(t)
	snap, err := e.rt.Instantiate(m, wikiRef(), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Designer mutates the shared model object after instantiation.
	m.Phases[0].Name = "Hacked"
	m.Phases = m.Phases[:3]
	got, _ := e.rt.Instance(snap.ID)
	if p, _ := got.Model.Phase("elaboration"); p.Name != "Elaboration" {
		t.Fatalf("instance saw designer edit: %q", p.Name)
	}
	if len(got.Model.Phases) != 7 {
		t.Fatalf("instance lost phases: %d", len(got.Model.Phases))
	}
}

func TestAdvanceHappyPath(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID

	steps := []string{"elaboration", "internalreview", "finalassembly", "eureview", "publication"}
	for _, phase := range steps {
		var err error
		snap, err = e.rt.Advance(id, phase, "owner", AdvanceOptions{
			CallBindings: map[string]map[string]string{
				"http://www.liquidpub.org/a/post": {"site": "http://project.liquidpub.org"},
			},
		})
		if err != nil {
			t.Fatalf("Advance(%s): %v", phase, err)
		}
		if snap.Current != phase {
			t.Fatalf("current = %q, want %q", snap.Current, phase)
		}
		if snap.State != StateActive {
			t.Fatalf("state after %s = %s", phase, snap.State)
		}
	}
	// None of the suggested moves is a deviation.
	for _, ev := range snap.Events {
		if ev.Kind == EventPhaseEntered && ev.Deviation {
			t.Fatalf("suggested move flagged as deviation: %+v", ev)
		}
	}
	// Finish.
	snap, err := e.rt.Advance(id, "accepted", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCompleted {
		t.Fatalf("state = %s, want completed (end phase reached)", snap.State)
	}
	if snap.CompletedAt.IsZero() {
		t.Fatal("CompletedAt not stamped")
	}

	// Actions dispatched: 2 (internalreview) + 1 (finalassembly) + 1 (publication).
	invs := e.inv.invocations()
	if len(invs) != 4 {
		t.Fatalf("dispatched %d invocations, want 4: %+v", len(invs), invs)
	}
	// Every invocation carries the resource link and a callback URI (§IV.C).
	for _, inv := range invs {
		if inv.ResourceURI != wikiRef().URI {
			t.Errorf("invocation %s missing resource link: %+v", inv.ID, inv)
		}
		if inv.CallbackURI == "" {
			t.Errorf("invocation %s has no callback URI", inv.ID)
		}
	}
	// All executions terminal-completed via the callback round trip.
	got, _ := e.rt.Instance(id)
	if len(got.Executions) != 4 {
		t.Fatalf("executions = %d", len(got.Executions))
	}
	for _, ex := range got.Executions {
		if !ex.Terminal || ex.LastStatus != actionlib.StatusCompleted {
			t.Fatalf("execution %+v not completed", ex)
		}
	}
}

func TestAdvanceResolvesInstantiationParams(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	if _, err := e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	var notify *actionlib.Invocation
	for _, inv := range e.inv.invocations() {
		if inv.TypeURI == "http://www.liquidpub.org/a/notify" {
			nv := inv
			notify = &nv
		}
	}
	if notify == nil {
		t.Fatal("notify action not dispatched")
	}
	if notify.Params["reviewers"] != "alice,bob" {
		t.Fatalf("instantiation-time binding lost: %v", notify.Params)
	}
}

func TestAdvanceUnknownPhase(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	_, err := e.rt.Advance(snap.ID, "ghost-phase", "owner", AdvanceOptions{})
	if !errors.Is(err, ErrUnknownPhase) {
		t.Fatalf("err = %v, want ErrUnknownPhase", err)
	}
	if _, err := e.rt.Advance("li-999999", "elaboration", "owner", AdvanceOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDeviationFlaggedAndAnnotated(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	if _, err := e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	// Skip straight to eureview — not a suggested transition.
	snap, err := e.rt.Advance(id, "eureview", "owner", AdvanceOptions{
		Annotation: "internal review skipped: deadline pressure",
	})
	if err != nil {
		t.Fatalf("free move rejected: %v", err)
	}
	var entered *Event
	for i := range snap.Events {
		if snap.Events[i].Kind == EventPhaseEntered && snap.Events[i].Phase == "eureview" {
			entered = &snap.Events[i]
		}
	}
	if entered == nil {
		t.Fatal("phase-entered event missing")
	}
	if !entered.Deviation {
		t.Fatal("deviation not flagged")
	}
	if !strings.Contains(entered.Detail, "deadline pressure") {
		t.Fatalf("annotation lost: %+v", entered)
	}
	if entered.FromPhase != "elaboration" {
		t.Fatalf("FromPhase = %q", entered.FromPhase)
	}
}

func TestBackwardMoveIsSuggestedIteration(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{})
	// internalreview -> elaboration is a declared iteration loop.
	snap, err := e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := snap.Events[len(snap.Events)-1]
	if last.Kind != EventPhaseEntered || last.Deviation {
		t.Fatalf("iteration loop flagged as deviation: %+v", last)
	}
}

func TestReopeningCompletedInstance(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	snap, err := e.rt.Advance(id, "rejected", "owner", AdvanceOptions{Annotation: "EU rejected"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateCompleted {
		t.Fatal("not completed after reaching terminal node")
	}
	// The work continues — "Very often, the work on the document
	// continues" (§II.A). Owner moves the token back out.
	snap, err = e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{Annotation: "rework for journal"})
	if err != nil {
		t.Fatalf("reopen rejected: %v", err)
	}
	if snap.State != StateActive {
		t.Fatalf("state = %s after reopen", snap.State)
	}
	var reopened bool
	for _, ev := range snap.Events {
		if ev.Kind == EventReopened {
			reopened = true
		}
	}
	if !reopened {
		t.Fatal("reopened event missing")
	}
}

func TestFinalPhaseDispatchesNoActions(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	e.rt.Advance(snap.ID, "accepted", "owner", AdvanceOptions{})
	if got := len(e.inv.invocations()); got != 0 {
		t.Fatalf("end phase dispatched %d actions", got)
	}
}

func TestActionDispatchFailureDoesNotBlockLifecycle(t *testing.T) {
	e := newEnv(t)
	e.inv.fail = map[string]bool{"http://www.liquidpub.org/a/pdf": true}
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{})
	snap, err := e.rt.Advance(id, "finalassembly", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatalf("Advance must succeed even when an action fails: %v", err)
	}
	got, _ := e.rt.Instance(id)
	var pdf *ActionExecution
	for i := range got.Executions {
		if got.Executions[i].ActionURI == "http://www.liquidpub.org/a/pdf" {
			pdf = &got.Executions[i]
		}
	}
	if pdf == nil || !pdf.Terminal || pdf.LastStatus != actionlib.StatusFailed {
		t.Fatalf("failed dispatch not recorded: %+v", pdf)
	}
	if pdf.DispatchErr == "" {
		t.Fatal("DispatchErr empty")
	}
	// Lifecycle proceeds regardless — no transactional semantics.
	if _, err := e.rt.Advance(id, "eureview", "owner", AdvanceOptions{}); err != nil {
		t.Fatalf("lifecycle blocked by failed action: %v", err)
	}
}

func TestMissingImplementationFailsActionNotLifecycle(t *testing.T) {
	e := newEnv(t)
	// A resource type nobody implements actions for.
	ref := resource.Ref{URI: "svn://repo/trunk", Type: "svn"}
	snap, err := e.rt.Instantiate(fig1(t), ref, "owner",
		map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": "alice"},
		})
	if err != nil {
		t.Fatalf("universality broken: instantiation refused: %v", err)
	}
	if len(snap.Unresolved) != 4 {
		t.Fatalf("unresolved = %v, want all four action types", snap.Unresolved)
	}
	e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	got, err := e.rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range got.Executions {
		if ex.LastStatus != actionlib.StatusFailed {
			t.Fatalf("unimplemented action should fail: %+v", ex)
		}
	}
	if got.State != StateActive || got.Current != "internalreview" {
		t.Fatal("lifecycle did not proceed past failed actions")
	}
}

func TestMissingRequiredCallParamFailsAction(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	// Enter publication without binding the required call-time "site".
	got, err := e.rt.Advance(id, "publication", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var post *ActionExecution
	for i := range got.Executions {
		if got.Executions[i].ActionURI == "http://www.liquidpub.org/a/post" {
			post = &got.Executions[i]
		}
	}
	if post == nil || post.LastStatus != actionlib.StatusFailed {
		t.Fatalf("unbound required call param should fail the action: %+v", post)
	}
	if !strings.Contains(post.LastDetail, "site") {
		t.Fatalf("failure detail should name the missing param: %+v", post)
	}
}

func TestReportStatusUpdates(t *testing.T) {
	e := newEnv(t)
	e.inv.status = "" // no auto-callback; we drive them by hand
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{})
	invs := e.inv.invocations()
	if len(invs) != 2 {
		t.Fatalf("invocations = %d", len(invs))
	}
	target := invs[0].ID

	// Informational update first (§IV.C: periodic status during execution).
	if err := e.rt.Report(actionlib.StatusUpdate{InvocationID: target, Message: "progress 40%", Detail: "rights updated for 2 of 5 users"}); err != nil {
		t.Fatal(err)
	}
	got, _ := e.rt.Instance(id)
	ex := findExec(t, got, target)
	if ex.Terminal || ex.LastStatus != "progress 40%" || ex.Updates != 1 {
		t.Fatalf("after info update: %+v", ex)
	}

	// Terminal completion.
	if err := e.rt.Report(actionlib.StatusUpdate{InvocationID: target, Message: actionlib.StatusCompleted}); err != nil {
		t.Fatal(err)
	}
	got, _ = e.rt.Instance(id)
	ex = findExec(t, got, target)
	if !ex.Terminal || ex.LastStatus != actionlib.StatusCompleted {
		t.Fatalf("after completion: %+v", ex)
	}

	// Late duplicate callback is ignored, not an error.
	if err := e.rt.Report(actionlib.StatusUpdate{InvocationID: target, Message: actionlib.StatusFailed}); err != nil {
		t.Fatal(err)
	}
	got, _ = e.rt.Instance(id)
	ex = findExec(t, got, target)
	if ex.LastStatus != actionlib.StatusCompleted {
		t.Fatalf("late callback mutated a terminal execution: %+v", ex)
	}

	// Unknown invocation id is an error.
	if err := e.rt.Report(actionlib.StatusUpdate{InvocationID: "inv-404404"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func findExec(t *testing.T, snap Snapshot, invID string) ActionExecution {
	t.Helper()
	for _, ex := range snap.Executions {
		if ex.InvocationID == invID {
			return ex
		}
	}
	t.Fatalf("execution %s not found", invID)
	return ActionExecution{}
}

func TestAnnotate(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	if err := e.rt.Annotate(snap.ID, "owner", "waiting for partner input"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.rt.Instance(snap.ID)
	last := got.Events[len(got.Events)-1]
	if last.Kind != EventAnnotated || last.Detail != "waiting for partner input" {
		t.Fatalf("annotation event = %+v", last)
	}
	if err := e.rt.Annotate("li-000999", "owner", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestBindParamsAfterCreation(t *testing.T) {
	e := newEnv(t)
	// Instantiate WITHOUT the required reviewers binding.
	snap, err := e.rt.Instantiate(fig1(t), wikiRef(), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	id := snap.ID
	// Owner decides the reviewers later, before entering the phase —
	// "decide who the reviewers are on the fly" (§I).
	if err := e.rt.BindParams(id, "owner", "http://www.liquidpub.org/a/notify",
		map[string]string{"reviewers": "carol,dan"}); err != nil {
		t.Fatal(err)
	}
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{})
	var notify *actionlib.Invocation
	for _, inv := range e.inv.invocations() {
		if inv.TypeURI == "http://www.liquidpub.org/a/notify" {
			nv := inv
			notify = &nv
		}
	}
	if notify == nil || notify.Params["reviewers"] != "carol,dan" {
		t.Fatalf("late binding lost: %+v", notify)
	}
	// Binding an action the model does not reference fails.
	if err := e.rt.BindParams(id, "owner", "urn:ghost", map[string]string{"x": "1"}); err == nil {
		t.Fatal("binding unknown action accepted")
	}
	// Binding a call-only param at inst stage fails.
	if err := e.rt.BindParams(id, "owner", "http://www.liquidpub.org/a/post",
		map[string]string{"site": "early"}); err == nil {
		t.Fatal("call-only param bound at inst stage")
	}
}

func TestMultipleInstancesSameURI(t *testing.T) {
	// §IV.B: "nothing prevents several lifecycle instances on the same
	// URI to be running".
	e := newEnv(t)
	a := e.instantiate(t)
	b := e.instantiate(t)
	if a.ID == b.ID {
		t.Fatal("duplicate instance ids")
	}
	byRes := e.rt.ByResource(wikiRef().URI)
	if len(byRes) != 2 {
		t.Fatalf("ByResource = %d instances, want 2", len(byRes))
	}
	e.rt.Advance(a.ID, "elaboration", "owner", AdvanceOptions{})
	ga, _ := e.rt.Instance(a.ID)
	gb, _ := e.rt.Instance(b.ID)
	if ga.Current == gb.Current {
		t.Fatal("instances share token state")
	}
	if got := snapshots(e.rt, Filter{ModelURI: "urn:gelee:models:eu-deliverable"}); len(got) != 2 {
		t.Fatalf("instances of model = %d", len(got))
	}
	if got := snapshots(e.rt, Filter{}); len(got) != 2 {
		t.Fatalf("Instances = %d", len(got))
	}
}

func TestDeadlines(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	got, _ := e.rt.Instance(id)
	due := got.DueAt("elaboration")
	if due.IsZero() {
		t.Fatal("elaboration deadline missing")
	}
	if got.Late(e.clock.Now()) {
		t.Fatal("instance late immediately")
	}
	e.clock.Advance(11 * 24 * time.Hour)
	got, _ = e.rt.Instance(id)
	if !got.Late(e.clock.Now()) {
		t.Fatal("instance not late after deadline passed")
	}
	// Completed instances are never late.
	e.rt.Advance(id, "accepted", "owner", AdvanceOptions{})
	got, _ = e.rt.Instance(id)
	if got.Late(e.clock.Now()) {
		t.Fatal("completed instance reported late")
	}
}

func TestAsyncDispatchParallelism(t *testing.T) {
	// With SyncActions off, all actions of a phase must be dispatched
	// without waiting for each other.
	var mu sync.Mutex
	started := make(chan struct{})
	release := make(chan struct{})
	var order []string
	inv := InvokerFunc(func(_ context.Context, in actionlib.Invocation) error {
		mu.Lock()
		order = append(order, in.TypeURI)
		n := len(order)
		mu.Unlock()
		if n == 1 {
			close(started)
			<-release // first action blocks until the second has run
		}
		if n == 2 {
			close(release)
		}
		return nil
	})
	rt, err := New(Config{Registry: testActions(t), Invoker: inv})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "a"}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	if _, err := rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { rt.WaitDispatch(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parallel dispatch deadlocked: actions were serialized")
	}
	<-started
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 {
		t.Fatalf("dispatched %d actions, want 2", len(order))
	}
}

func TestPolicyEnforcement(t *testing.T) {
	// A policy modeling §IV.D: "owner" drives; "dev" is a token owner
	// restricted to internalreview; everyone else nothing.
	policy := policyFunc{
		drive: func(actor, inst string) bool { return actor == "owner" },
		follow: func(actor, inst, target string) bool {
			return actor == "owner" || (actor == "dev" && target == "internalreview")
		},
	}
	inv := &recordingInvoker{status: actionlib.StatusCompleted}
	rt, err := New(Config{Registry: testActions(t), Invoker: inv, SyncActions: true, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt
	snap, err := rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "a"}})
	if err != nil {
		t.Fatal(err)
	}
	id := snap.ID
	if _, err := rt.Advance(id, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	// dev may follow the suggested transition into internalreview.
	if _, err := rt.Advance(id, "internalreview", "dev", AdvanceOptions{}); err != nil {
		t.Fatalf("token owner blocked on granted transition: %v", err)
	}
	// dev may NOT deviate.
	if _, err := rt.Advance(id, "publication", "dev", AdvanceOptions{}); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden (deviation is owner-only)", err)
	}
	// dev may not follow other suggested transitions either.
	if _, err := rt.Advance(id, "finalassembly", "dev", AdvanceOptions{}); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}
	// stranger can do nothing.
	if err := rt.Annotate(id, "stranger", "hi"); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}
	if err := rt.BindParams(id, "stranger", "http://www.liquidpub.org/a/notify", map[string]string{"reviewers": "x"}); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}
}

type policyFunc struct {
	drive  func(actor, inst string) bool
	follow func(actor, inst, target string) bool
}

func (p policyFunc) CanDrive(actor, inst string) bool          { return p.drive(actor, inst) }
func (p policyFunc) CanFollow(actor, inst, target string) bool { return p.follow(actor, inst, target) }

func TestNewRequiresRegistry(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without registry")
	}
}
