package runtime

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/core"
)

// fig1WithoutInternalReview is the "we're late, drop the internal
// review" model change from §II.A.
func fig1WithoutInternalReview(t *testing.T) *core.Model {
	t.Helper()
	m := fig1(t).Clone()
	m.Version.Number = "2.0"
	var phases []*core.Phase
	for _, p := range m.Phases {
		if p.ID != "internalreview" {
			phases = append(phases, p)
		}
	}
	m.Phases = phases
	var trans []core.Transition
	for _, tr := range m.Transitions {
		if tr.From != "internalreview" && tr.To != "internalreview" {
			trans = append(trans, tr)
		}
	}
	trans = append(trans, core.Transition{From: "elaboration", To: "finalassembly"})
	m.Transitions = trans
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProposeAcceptKeepPhase(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})

	newM := fig1WithoutInternalReview(t)
	if err := e.rt.ProposeChange(id, "coordinator", newM, "review dropped per PMB decision"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.rt.Instance(id)
	if got.Pending == nil {
		t.Fatal("proposal not attached")
	}
	if got.Pending.ProposedBy != "coordinator" {
		t.Fatalf("proposer = %q", got.Pending.ProposedBy)
	}
	if !strings.Contains(got.Pending.Summary, "removed internalreview") {
		t.Fatalf("summary = %q", got.Pending.Summary)
	}

	// Current phase (elaboration) survives in the new model: landing is
	// optional.
	after, err := e.rt.AcceptChange(id, "owner", "")
	if err != nil {
		t.Fatal(err)
	}
	if after.Current != "elaboration" {
		t.Fatalf("current = %q after migration", after.Current)
	}
	if after.Pending != nil {
		t.Fatal("pending not cleared")
	}
	if _, ok := after.Model.Phase("internalreview"); ok {
		t.Fatal("instance still has the removed phase")
	}
	if after.Model.Version.Number != "2.0" {
		t.Fatalf("model version = %q", after.Model.Version.Number)
	}
	if after.State != StateActive {
		t.Fatalf("state = %s", after.State)
	}
}

func TestAcceptRequiresLandingWhenPhaseRemoved(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{})

	if err := e.rt.ProposeChange(id, "coordinator", fig1WithoutInternalReview(t), ""); err != nil {
		t.Fatal(err)
	}
	// Token sits on the phase being removed: accepting without a landing
	// phase must fail with a decision-needed error.
	_, err := e.rt.AcceptChange(id, "owner", "")
	if !errors.Is(err, ErrUnknownPhase) {
		t.Fatalf("err = %v, want ErrUnknownPhase (must choose landing)", err)
	}
	// Owner chooses where to land — "they can state in which phase the
	// lifecycle instance should end up" (§IV.B).
	after, err := e.rt.AcceptChange(id, "owner", "finalassembly")
	if err != nil {
		t.Fatal(err)
	}
	if after.Current != "finalassembly" {
		t.Fatalf("current = %q", after.Current)
	}
	// State migration only: landing must NOT have dispatched the
	// finalassembly actions.
	for _, ex := range after.Executions {
		if ex.Phase == "finalassembly" {
			t.Fatalf("migration dispatched actions: %+v", ex)
		}
	}
}

func TestAcceptLandingOnFinalCompletes(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	if err := e.rt.ProposeChange(id, "coordinator", fig1WithoutInternalReview(t), ""); err != nil {
		t.Fatal(err)
	}
	after, err := e.rt.AcceptChange(id, "owner", "accepted")
	if err != nil {
		t.Fatal(err)
	}
	if after.State != StateCompleted {
		t.Fatalf("state = %s, want completed (landed on end phase)", after.State)
	}
	if after.CompletedAt.IsZero() {
		t.Fatal("CompletedAt not stamped by migration")
	}
}

func TestRejectChangeKeepsModel(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	before, _ := e.rt.Instance(id)
	fpBefore := before.Model.Fingerprint()

	if err := e.rt.ProposeChange(id, "coordinator", fig1WithoutInternalReview(t), ""); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.RejectChange(id, "owner", "we still want the internal review"); err != nil {
		t.Fatal(err)
	}
	after, _ := e.rt.Instance(id)
	if after.Pending != nil {
		t.Fatal("pending survives rejection")
	}
	if after.Model.Fingerprint() != fpBefore {
		t.Fatal("rejection changed the model")
	}
	last := after.Events[len(after.Events)-1]
	if last.Kind != EventChangeRejected || !strings.Contains(last.Detail, "still want") {
		t.Fatalf("rejection event = %+v", last)
	}
}

func TestChangeDecisionsAreOwnerOnly(t *testing.T) {
	policy := policyFunc{
		drive:  func(actor, inst string) bool { return actor == "owner" },
		follow: func(actor, inst, target string) bool { return true },
	}
	e := newEnvWithPolicy(t, policy)
	snap := e.instantiate(t)
	id := snap.ID
	if err := e.rt.ProposeChange(id, "coordinator", fig1WithoutInternalReview(t), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.AcceptChange(id, "dev", ""); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}
	if err := e.rt.RejectChange(id, "dev", ""); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}
}

func newEnvWithPolicy(t *testing.T, p Policy) *env {
	t.Helper()
	inv := &recordingInvoker{}
	rt, err := New(Config{Registry: testActions(t), Invoker: inv, SyncActions: true, Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt
	return &env{rt: rt, inv: inv}
}

func TestAcceptWithoutProposal(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	if _, err := e.rt.AcceptChange(snap.ID, "owner", ""); !errors.Is(err, ErrNoPending) {
		t.Fatalf("err = %v, want ErrNoPending", err)
	}
	if err := e.rt.RejectChange(snap.ID, "owner", ""); !errors.Is(err, ErrNoPending) {
		t.Fatalf("err = %v, want ErrNoPending", err)
	}
}

func TestSecondProposalReplacesFirst(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	v2 := fig1WithoutInternalReview(t)
	if err := e.rt.ProposeChange(id, "coordinator", v2, "first try"); err != nil {
		t.Fatal(err)
	}
	v3 := fig1(t).Clone()
	v3.Version.Number = "3.0"
	v3.Phases = append(v3.Phases, &core.Phase{ID: "archival", Name: "Archival"})
	if err := e.rt.ProposeChange(id, "coordinator", v3, "second try"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.rt.Instance(id)
	if !strings.Contains(got.Pending.Summary, "added archival") {
		t.Fatalf("pending is not the second proposal: %q", got.Pending.Summary)
	}
	// History shows the replacement.
	var sawReplace bool
	for _, ev := range got.Events {
		if ev.Kind == EventChangeProposed && strings.Contains(ev.Detail, "replaces an undecided proposal") {
			sawReplace = true
		}
	}
	if !sawReplace {
		t.Fatal("replacement not recorded in history")
	}
}

func TestProposalIsSnapshotted(t *testing.T) {
	// Mutating the proposed model after ProposeChange must not affect
	// the pending proposal (light coupling again).
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	newM := fig1WithoutInternalReview(t)
	if err := e.rt.ProposeChange(id, "coordinator", newM, ""); err != nil {
		t.Fatal(err)
	}
	newM.Phases[0].Name = "Tampered"
	after, err := e.rt.AcceptChange(id, "owner", "elaboration")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := after.Model.Phase("elaboration")
	if p.Name == "Tampered" {
		t.Fatal("proposal shared storage with the designer's model")
	}
}

func TestProposeRejectsInvalidModel(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	if err := e.rt.ProposeChange(snap.ID, "coordinator", &core.Model{Name: "empty"}, ""); err == nil {
		t.Fatal("invalid model proposed successfully")
	}
	if err := e.rt.ProposeChange(snap.ID, "coordinator", nil, ""); err == nil {
		t.Fatal("nil model proposed successfully")
	}
	if err := e.rt.ProposeChange("li-000777", "coordinator", fig1(t), ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSwitchModelOwnerInitiated(t *testing.T) {
	// §IV.B: "owners can change the lifecycle followed by a resource".
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})

	survey, err := core.NewModel("urn:gelee:models:journal-survey", "Journal survey lifecycle").
		Version("1.0", "owner", time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC)).
		Phase("drafting", "Drafting").Done().
		Phase("submission", "Submission").Done().
		FinalPhase("published", "Published").
		Initial("drafting").
		Chain("drafting", "submission", "published").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	after, err := e.rt.SwitchModel(id, "owner", survey, "drafting")
	if err != nil {
		t.Fatal(err)
	}
	if after.Current != "drafting" || after.Model.Name != "Journal survey lifecycle" {
		t.Fatalf("switch failed: %q in %q", after.Current, after.Model.Name)
	}
	if after.ModelURI != "urn:gelee:models:journal-survey" {
		t.Fatalf("model provenance not updated: %q", after.ModelURI)
	}
	// Full history preserved across the switch.
	if after.Events[0].Kind != EventCreated {
		t.Fatal("history lost")
	}
}

func TestSwitchModelFailureLeavesNoTrace(t *testing.T) {
	// A switch whose landing cannot be resolved must not change the
	// model, the provenance pointer, the model index, or leave its
	// proposal pending for a later unrelated AcceptChange.
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})

	survey, err := core.NewModel("urn:gelee:models:journal-survey", "Journal survey lifecycle").
		Version("1.0", "owner", time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC)).
		Phase("drafting", "Drafting").Done().
		FinalPhase("published", "Published").
		Initial("drafting").
		Chain("drafting", "published").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Current phase "elaboration" does not exist in survey and no
	// landing is given: the switch must fail atomically.
	if _, err := e.rt.SwitchModel(id, "owner", survey, ""); !errors.Is(err, ErrUnknownPhase) {
		t.Fatalf("switch error = %v, want ErrUnknownPhase", err)
	}
	got, _ := e.rt.Instance(id)
	if got.ModelURI != snap.ModelURI {
		t.Fatalf("failed switch moved provenance to %q", got.ModelURI)
	}
	if got.Current != "elaboration" {
		t.Fatalf("failed switch moved the token to %q", got.Current)
	}
	if got.Pending != nil {
		t.Fatalf("failed switch left a pending proposal: %+v", got.Pending)
	}
	if _, err := e.rt.AcceptChange(id, "owner", ""); !errors.Is(err, ErrNoPending) {
		t.Fatalf("accept after failed switch = %v, want ErrNoPending", err)
	}
	// The model index must still list the instance under its original
	// model URI, and not under the rejected one.
	if got := snapshots(e.rt, Filter{ModelURI: snap.ModelURI}); len(got) != 1 || got[0].ID != id {
		t.Fatalf("model %s lists %d instances after failed switch", snap.ModelURI, len(got))
	}
	if got := snapshots(e.rt, Filter{ModelURI: "urn:gelee:models:journal-survey"}); len(got) != 0 {
		t.Fatalf("failed switch indexed the instance under the new model")
	}
}

func TestMigrationAtBeginNeedsNoLanding(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t) // token still at BEGIN
	if err := e.rt.ProposeChange(snap.ID, "coordinator", fig1WithoutInternalReview(t), ""); err != nil {
		t.Fatal(err)
	}
	after, err := e.rt.AcceptChange(snap.ID, "owner", "")
	if err != nil {
		t.Fatalf("migration at BEGIN should not need a landing phase: %v", err)
	}
	if after.Current != "" {
		t.Fatalf("token moved by migration: %q", after.Current)
	}
}

// TestNullPhaseModelRejected: proposing or switching to a model whose
// phase list holds a null fails validation and leaves the instance as
// it was; it does not panic.
func TestNullPhaseModelRejected(t *testing.T) {
	e := newEnv(t)
	id := e.instantiate(t).ID
	bad := fig1(t)
	bad.Phases = append(bad.Phases, nil)
	if err := e.rt.ProposeChange(id, "designer", bad, ""); !core.IsValidation(err) {
		t.Fatalf("ProposeChange(null phase) = %v, want a validation error", err)
	}
	if _, err := e.rt.SwitchModel(id, "owner", bad, "draft"); !core.IsValidation(err) {
		t.Fatalf("SwitchModel(null phase) = %v, want a validation error", err)
	}
	if _, err := e.rt.PropagateChange("designer", bad, ""); !core.IsValidation(err) {
		t.Fatalf("PropagateChange(null phase) = %v, want a validation error", err)
	}
	if snap, ok := e.rt.Instance(id); !ok || snap.Pending != nil || len(snap.Events) != 1 {
		t.Fatalf("instance changed by rejected models: %+v", snap)
	}
}
