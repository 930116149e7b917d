package monitor

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

// env wires a runtime with the scenario quality plan and a monitor over
// it. Actions resolve for nothing (no registry entries) — monitoring is
// about phases, and failed actions are part of what the cockpit shows.
type env struct {
	rt    *runtime.Runtime
	mon   *Monitor
	clock *vclock.Fake
}

func newEnv(t *testing.T) *env {
	t.Helper()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC))
	rt, err := runtime.New(runtime.Config{
		Registry:    actionlib.NewRegistry(),
		Invoker:     runtime.InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil }),
		Clock:       clock,
		SyncActions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &env{rt: rt, mon: New(rt, clock), clock: clock}
}

func (e *env) seed(t *testing.T, n int) []runtime.Snapshot {
	t.Helper()
	model := scenario.QualityPlan()
	dels := scenario.Deliverables(n)
	snaps := make([]runtime.Snapshot, n)
	for i, d := range dels {
		snap, err := e.rt.Instantiate(model, d.Ref, d.Owner, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snap
	}
	return snaps
}

func TestSummarizeCountsStates(t *testing.T) {
	e := newEnv(t)
	snaps := e.seed(t, 6)
	// Advance: two into elaboration, one all the way to accepted, one
	// deviates straight to publication; two stay unstarted.
	e.rt.Advance(snaps[0].ID, "elaboration", snaps[0].Owner, runtime.AdvanceOptions{})
	e.rt.Advance(snaps[1].ID, "elaboration", snaps[1].Owner, runtime.AdvanceOptions{})
	e.rt.Advance(snaps[2].ID, "elaboration", snaps[2].Owner, runtime.AdvanceOptions{})
	e.rt.Advance(snaps[2].ID, "accepted", snaps[2].Owner, runtime.AdvanceOptions{Annotation: "fast-tracked"})
	e.rt.Advance(snaps[3].ID, "publication", snaps[3].Owner, runtime.AdvanceOptions{Annotation: "skip everything"})

	sum := e.mon.Summarize()
	if sum.Total != 6 || sum.Completed != 1 || sum.Active != 5 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.NotStarted != 2 {
		t.Fatalf("not started = %d", sum.NotStarted)
	}
	if sum.ByPhase["Elaboration"] != 2 || sum.ByPhase["Publication"] != 1 || sum.ByPhase["(not started)"] != 2 {
		t.Fatalf("by phase = %v", sum.ByPhase)
	}
	// Two deviations: fast-track to accepted and skip to publication.
	if sum.Deviations != 2 {
		t.Fatalf("deviations = %d", sum.Deviations)
	}
	// Each phase entry dispatched unimplemented actions -> failures.
	if sum.Failed == 0 {
		t.Fatal("failed actions not counted")
	}
	if sum.ByModel["EU Project deliverable lifecycle"] != 6 {
		t.Fatalf("by model = %v", sum.ByModel)
	}
}

func TestLateDetectionAndOrdering(t *testing.T) {
	e := newEnv(t)
	snaps := e.seed(t, 3)
	for _, s := range snaps {
		e.rt.Advance(s.ID, "elaboration", s.Owner, runtime.AdvanceOptions{})
	}
	// Move one instance on to internalreview (due day 40); the others sit
	// in elaboration (due day 30).
	e.rt.Advance(snaps[0].ID, "internalreview", snaps[0].Owner, runtime.AdvanceOptions{})

	if got := e.mon.Late(); len(got) != 0 {
		t.Fatalf("late before any deadline = %v", got)
	}
	e.clock.Advance(31 * 24 * time.Hour)
	late := e.mon.Late()
	if len(late) != 2 {
		t.Fatalf("late after day 31 = %d rows, want the two in elaboration", len(late))
	}
	for _, row := range late {
		if row.Phase != "elaboration" || !row.Late || row.LateBy == "" {
			t.Fatalf("late row = %+v", row)
		}
	}
	e.clock.Advance(10 * 24 * time.Hour) // day 41: internalreview overdue too
	late = e.mon.Late()
	if len(late) != 3 {
		t.Fatalf("late after day 41 = %d rows", len(late))
	}
	// Most overdue (earliest due) first.
	for i := 1; i < len(late); i++ {
		if late[i].Due.Before(late[i-1].Due) {
			t.Fatalf("late rows not sorted by due date: %v", late)
		}
	}
	// Completing an overdue instance clears it from the late list.
	e.rt.Advance(snaps[1].ID, "accepted", snaps[1].Owner, runtime.AdvanceOptions{})
	if got := e.mon.Late(); len(got) != 2 {
		t.Fatalf("late after completion = %d", len(got))
	}
}

func TestOverviewRows(t *testing.T) {
	e := newEnv(t)
	snaps := e.seed(t, 2)
	e.rt.Advance(snaps[0].ID, "elaboration", snaps[0].Owner, runtime.AdvanceOptions{})
	rows := e.mon.Overview()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r0 := rows[0]
	if r0.InstanceID != snaps[0].ID || r0.PhaseName != "Elaboration" || r0.Owner != snaps[0].Owner {
		t.Fatalf("row = %+v", r0)
	}
	if r0.Due.IsZero() {
		t.Fatal("due date missing for elaboration")
	}
	if rows[1].Phase != "" || rows[1].PhaseName != "" {
		t.Fatalf("unstarted row = %+v", rows[1])
	}
}

func TestOverviewFlagsProposals(t *testing.T) {
	e := newEnv(t)
	snaps := e.seed(t, 1)
	m2 := scenario.QualityPlan()
	m2.Version.Number = "2.0"
	m2.Phases = append(m2.Phases, nil)
	m2.Phases = m2.Phases[:len(m2.Phases)-1] // no-op, keep valid
	if err := e.rt.ProposeChange(snaps[0].ID, "coordinator", m2, "tweak"); err != nil {
		t.Fatal(err)
	}
	rows := e.mon.Overview()
	if !rows[0].HasProposal {
		t.Fatal("proposal not flagged")
	}
	sum := e.mon.Summarize()
	if sum.Proposals != 1 {
		t.Fatalf("proposals = %d", sum.Proposals)
	}
}

func TestPhaseStats(t *testing.T) {
	e := newEnv(t)
	snaps := e.seed(t, 1)
	id := snaps[0].ID
	owner := snaps[0].Owner
	e.rt.Advance(id, "elaboration", owner, runtime.AdvanceOptions{})
	e.clock.Advance(48 * time.Hour)
	e.rt.Advance(id, "internalreview", owner, runtime.AdvanceOptions{})
	e.clock.Advance(24 * time.Hour)

	stats, ok := e.mon.PhaseStats(id)
	if !ok {
		t.Fatal("stats missing")
	}
	if stats["elaboration"] != 48*time.Hour {
		t.Fatalf("elaboration residence = %v", stats["elaboration"])
	}
	// Ongoing residence counts up to now.
	if stats["internalreview"] != 24*time.Hour {
		t.Fatalf("internalreview residence = %v", stats["internalreview"])
	}
	// Completion freezes the clock.
	e.rt.Advance(id, "accepted", owner, runtime.AdvanceOptions{})
	e.clock.Advance(100 * time.Hour)
	stats, _ = e.mon.PhaseStats(id)
	if stats["internalreview"] != 24*time.Hour {
		t.Fatalf("post-completion residence drifted: %v", stats["internalreview"])
	}
	if _, ok := e.mon.PhaseStats("ghost"); ok {
		t.Fatal("stats for missing instance")
	}
}

func TestLiquidPubScale(t *testing.T) {
	// The paper's concrete case: 35 deliverables at a glance (§II.A).
	e := newEnv(t)
	snaps := e.seed(t, 35)
	for i, s := range snaps {
		e.rt.Advance(s.ID, scenario.HappyPath[0], s.Owner, runtime.AdvanceOptions{})
		for j := 1; j <= i%len(scenario.HappyPath); j++ {
			e.rt.Advance(s.ID, scenario.HappyPath[j], s.Owner, runtime.AdvanceOptions{})
		}
	}
	sum := e.mon.Summarize()
	if sum.Total != 35 {
		t.Fatalf("total = %d", sum.Total)
	}
	var phaseTotal int
	for _, n := range sum.ByPhase {
		phaseTotal += n
	}
	if phaseTotal != 35 {
		t.Fatalf("phase counts sum to %d", phaseTotal)
	}
	if len(e.mon.Overview()) != 35 {
		t.Fatal("overview row count mismatch")
	}
}

// TestRowCountersComeFromSummaries pins the cockpit rows to the
// incrementally maintained counters, including failed and pending
// executions.
func TestRowCountersComeFromSummaries(t *testing.T) {
	e := newEnv(t)
	snaps := e.seed(t, 1)
	id := snaps[0].ID
	// internalreview carries actions with no registered implementations:
	// immediate terminal failures.
	e.rt.Advance(id, "internalreview", snaps[0].Owner, runtime.AdvanceOptions{Annotation: "skip ahead"})
	rows := e.mon.Overview()
	if rows[0].Deviations != 1 {
		t.Fatalf("deviations = %d", rows[0].Deviations)
	}
	if rows[0].FailedSteps == 0 {
		t.Fatalf("failed steps = %d", rows[0].FailedSteps)
	}
	if rows[0].PendingInvs != 0 {
		t.Fatalf("pending = %d", rows[0].PendingInvs)
	}
	snap, _ := e.rt.Instance(id)
	if len(snap.Executions) != rows[0].FailedSteps {
		t.Fatalf("row failed %d != executions %d", rows[0].FailedSteps, len(snap.Executions))
	}
}

// TestSummarizeCountsUnnamedPhases guards the Total == NotStarted +
// sum(ByPhase) invariant when a phase has no display name (legal —
// validation only warns): such instances are keyed by phase id, not
// dropped.
func TestSummarizeCountsUnnamedPhases(t *testing.T) {
	e := newEnv(t)
	model, err := core.NewModel("urn:m:unnamed", "Unnamed-phase model").
		Phase("limbo", "").
		FinalPhase("done", "Done").
		Initial("limbo").Transition("limbo", "done").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.rt.Instantiate(model, resource.Ref{URI: "urn:r:1", Type: "t"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.rt.Advance(snap.ID, "limbo", "owner", runtime.AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	sum := e.mon.Summarize()
	if sum.ByPhase["limbo"] != 1 {
		t.Fatalf("unnamed phase dropped from breakdown: %v", sum.ByPhase)
	}
	phaseTotal := 0
	for _, n := range sum.ByPhase {
		phaseTotal += n
	}
	if phaseTotal != sum.Total {
		t.Fatalf("phase counts sum to %d, total %d", phaseTotal, sum.Total)
	}
}

func TestRowResourceIdentity(t *testing.T) {
	e := newEnv(t)
	model := scenario.QualityPlan()
	snap, err := e.rt.Instantiate(model,
		resource.Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}, "unitn-lead", nil)
	if err != nil {
		t.Fatal(err)
	}
	row := e.mon.Overview()[0]
	if row.ResourceURI != "http://wiki.liquidpub.org/pages/D1.1" || row.ResourceType != "mediawiki" {
		t.Fatalf("row = %+v", row)
	}
	_ = snap
}

// TestPhaseStatsSurviveTruncation: the per-phase counters come from
// the runtime's incrementally maintained stats, so ring-truncating the
// in-memory history changes nothing — the old event-replay
// implementation would have lost the truncated residence.
func TestPhaseStatsSurviveTruncation(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC))
	rt, err := runtime.New(runtime.Config{
		Registry:          actionlib.NewRegistry(),
		Invoker:           runtime.InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil }),
		Clock:             clock,
		SyncActions:       true,
		MaxEventsInMemory: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := New(rt, clock)
	model := scenario.QualityPlan()
	snap, err := rt.Instantiate(model, scenario.Deliverables(1)[0].Ref, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Advance(snap.ID, "elaboration", "owner", runtime.AdvanceOptions{})
	clock.Advance(48 * time.Hour)
	rt.Advance(snap.ID, "internalreview", "owner", runtime.AdvanceOptions{})
	clock.Advance(24 * time.Hour)
	rt.Advance(snap.ID, "elaboration", "owner", runtime.AdvanceOptions{})
	clock.Advance(6 * time.Hour)
	// Flood the ring so the early phase-entered events are truncated out.
	for i := 0; i < 20; i++ {
		if err := rt.Annotate(snap.ID, "owner", "note"); err != nil {
			t.Fatal(err)
		}
	}
	if page, _ := rt.Events(snap.ID, 0, 0); page.OldestSeq <= 1 {
		t.Fatal("test did not exercise truncation")
	}

	stats, ok := mon.PhaseStats(snap.ID)
	if !ok {
		t.Fatal("stats missing")
	}
	if stats["elaboration"] != 54*time.Hour {
		t.Fatalf("elaboration residence = %v, want 54h", stats["elaboration"])
	}
	if stats["internalreview"] != 24*time.Hour {
		t.Fatalf("internalreview residence = %v, want 24h", stats["internalreview"])
	}
	full, ok := mon.PhaseBreakdown(snap.ID)
	if !ok {
		t.Fatal("breakdown missing")
	}
	if full["elaboration"].Entered != 2 || full["internalreview"].Entered != 1 {
		t.Fatalf("entered counts = %+v", full)
	}
	if _, ok := mon.PhaseBreakdown("ghost"); ok {
		t.Fatal("breakdown for missing instance")
	}
}

// TestLateViewTiesInCreationOrder: an absolute deadline gives every
// instance in its phase the same due date, so the late view's order
// among them comes from the sort's tie handling. Interleaved instances
// with an earlier offset deadline force the sort to move rows; the
// tied ones must still list in creation order, on every call.
func TestLateViewTiesInCreationOrder(t *testing.T) {
	e := newEnv(t)
	start := e.clock.Now()
	model := core.NewModel("urn:m:fixed", "Fixed-date model").
		Phase("fixed", "Fixed").DueAt(start.Add(48*time.Hour)).Done().
		Phase("rolling", "Rolling").DueIn(24*time.Hour).Done().
		FinalPhase("done", "Done").
		Initial("fixed").Initial("rolling").
		Transition("fixed", "done").Transition("rolling", "done").
		MustBuild()
	var fixed, rolling []string
	for i := 0; i < 60; i++ {
		snap, err := e.rt.Instantiate(model, resource.Ref{URI: fmt.Sprintf("urn:r:%d", i), Type: "t"}, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		phase := "fixed"
		if i%3 == 0 {
			phase = "rolling"
			rolling = append(rolling, snap.ID)
		} else {
			fixed = append(fixed, snap.ID)
		}
		if _, err := e.rt.Advance(snap.ID, phase, "owner", runtime.AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	e.clock.Advance(72 * time.Hour)
	want := append(append([]string(nil), rolling...), fixed...)
	for call := 0; call < 5; call++ {
		late := e.mon.Late()
		if len(late) != len(want) {
			t.Fatalf("call %d: %d late rows, want %d", call, len(late), len(want))
		}
		for i, r := range late {
			if r.InstanceID != want[i] {
				t.Fatalf("call %d: row %d is %s, want %s (ties must keep creation order)", call, i, r.InstanceID, want[i])
			}
		}
	}
}
