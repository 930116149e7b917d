package monitor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/vclock"
)

// scanSummary is the reference oracle for Summarize: a full recount
// over every instance's summary, the way the monitor computed the
// cockpit numbers before the runtime maintained them.
func scanSummary(src Source, now time.Time) Summary {
	sum := Summary{ByPhase: make(map[string]int), ByModel: make(map[string]int)}
	src.ForEachSummary(runtime.Filter{}, 0, func(s runtime.Summary) bool {
		sum.Total++
		switch s.State {
		case runtime.StateActive:
			sum.Active++
		case runtime.StateCompleted:
			sum.Completed++
		}
		switch {
		case s.Current == "":
			sum.NotStarted++
			sum.ByPhase[runtime.NotStartedPhase]++
		case s.PhaseName != "":
			sum.ByPhase[s.PhaseName]++
		default:
			sum.ByPhase[s.Current]++
		}
		sum.ByModel[s.ModelName]++
		if s.Late(now) {
			sum.Late++
		}
		sum.Deviations += s.Deviations
		sum.Failed += s.FailedSteps
		if s.Pending != "" {
			sum.Proposals++
		}
		return true
	})
	return sum
}

const aggAction = "urn:agg:act"

// aggT0 is the fake clock's start; absolute deadlines hang off it.
var aggT0 = time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC)

// aggModels are the lifecycles the model-based tests mix: offset and
// absolute deadlines, an unnamed phase, phases with and without
// actions, several final phases (one carrying a deadline, which a
// completed instance must never be late against), and a second version
// of each model (renamed phases, moved deadlines, an extra phase) for
// proposals and switches.
func aggModels() []*core.Model {
	alpha := func(name, draft string, v2 bool) *core.Model {
		b := core.NewModel("urn:agg:alpha", name).
			Phase("a1", draft).Action(aggAction, "Act").DueIn(5*24*time.Hour).Done().
			Phase("a2", "Review").DueAt(aggT0.Add(12*24*time.Hour)).Done().
			Phase("a3", "").DueIn(20 * 24 * time.Hour).Done()
		if v2 {
			b = b.Phase("a4", "Archive").DueAt(aggT0.Add(30 * 24 * time.Hour)).Done()
		}
		return b.FinalPhase("adone", "Done").
			Initial("a1").Chain("a1", "a2", "a3", "adone").
			MustBuild()
	}
	beta := func(name string, due time.Duration) *core.Model {
		m := core.NewModel("urn:agg:beta", name).
			Phase("b1", "Draft").Action(aggAction, "Act").Done().
			Phase("b2", "Check").DueIn(due).Done().
			FinalPhase("bok", "Accepted").
			FinalPhase("bno", "Rejected").
			Initial("b1").Chain("b1", "b2", "bok").Transition("b2", "bno").
			MustBuild()
		rejected, _ := m.Phase("bno")
		rejected.Deadline = core.Deadline{Offset: time.Hour}
		return m
	}
	return []*core.Model{
		alpha("Alpha", "Draft", false),
		beta("Beta", 3*24*time.Hour),
		alpha("Alpha v2", "Drafting", true),
		beta("Beta v2", 9*24*time.Hour),
	}
}

// aggRuntime builds a runtime whose single action resolves for "doc"
// resources only; every failEvery-th dispatch errors (0 = never), and
// the rest stay pending until the test reports on them.
func aggRuntime(t testing.TB, clock vclock.Clock, journal runtime.Journal, failEvery int64) *runtime.Runtime {
	t.Helper()
	reg := actionlib.NewRegistry()
	if err := reg.Register(actionlib.ActionType{URI: aggAction, Name: "Act"},
		actionlib.Implementation{TypeURI: aggAction, ResourceType: "doc",
			Endpoint: "local://act", Protocol: actionlib.ProtocolLocal}); err != nil {
		t.Fatal(err)
	}
	var dispatched atomic.Int64
	rt, err := runtime.New(runtime.Config{
		Registry: reg,
		Invoker: runtime.InvokerFunc(func(context.Context, actionlib.Invocation) error {
			if n := dispatched.Add(1); failEvery > 0 && n%failEvery == 0 {
				return errors.New("endpoint unreachable")
			}
			return nil
		}),
		Clock:       clock,
		SyncActions: true,
		Journal:     journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// aggMutator applies random operations of every mutating kind to one
// runtime. It is not safe for concurrent use; concurrent tests give
// each goroutine its own mutator over disjoint instances.
type aggMutator struct {
	rt     *runtime.Runtime
	clock  *vclock.Fake
	rng    *rand.Rand
	models []*core.Model
	ids    []string
	name   string
}

func (d *aggMutator) pick() string { return d.ids[d.rng.Intn(len(d.ids))] }

func (d *aggMutator) instantiate() error {
	typ := "doc"
	if d.rng.Intn(5) == 0 {
		typ = "other" // the action has no implementation: dispatch fails at preparation
	}
	ref := resource.Ref{URI: fmt.Sprintf("urn:agg:%s-res-%d", d.name, len(d.ids)), Type: typ}
	snap, err := d.rt.Instantiate(d.models[d.rng.Intn(2)], ref, "owner", nil)
	if err != nil {
		return err
	}
	d.ids = append(d.ids, snap.ID)
	return nil
}

// step applies one random operation and names it for failure messages.
// Operations the current state makes illegal (accepting with no
// proposal, say) are skipped, not errors.
func (d *aggMutator) step() (string, error) {
	if len(d.ids) == 0 || d.rng.Intn(8) == 0 {
		return "instantiate", d.instantiate()
	}
	id := d.pick()
	sum, _ := d.rt.Summary(id)
	switch op := d.rng.Intn(10); op {
	case 0, 1, 2: // suggested advance, into final phases too
		if len(sum.NextSuggested) == 0 {
			return "advance (none suggested)", nil
		}
		to := sum.NextSuggested[d.rng.Intn(len(sum.NextSuggested))]
		_, err := d.rt.AdvanceSummary(id, to, "owner", runtime.AdvanceOptions{})
		return "advance " + id + " to " + to, err
	case 3: // deviating advance to any phase
		to := sum.Phases[d.rng.Intn(len(sum.Phases))]
		_, err := d.rt.AdvanceSummary(id, to, "owner", runtime.AdvanceOptions{Annotation: "deviate"})
		return "deviate " + id + " to " + to, err
	case 4: // action status report on a pending execution
		snap, _ := d.rt.Instance(id)
		for _, ex := range snap.Executions {
			if ex.Terminal {
				continue
			}
			msg := []string{actionlib.StatusFailed, actionlib.StatusCompleted, "progress"}[d.rng.Intn(3)]
			return "report " + msg + " on " + id, d.rt.Report(actionlib.StatusUpdate{InvocationID: ex.InvocationID, Message: msg})
		}
		return "report (none pending)", nil
	case 5: // propose the next version of the instance's model
		return "propose on " + id, d.rt.ProposeChange(id, "designer", d.nextVersion(sum.ModelName), "revise")
	case 6: // accept or reject a pending proposal
		if sum.Pending == "" {
			return "decide (none pending)", nil
		}
		if d.rng.Intn(2) == 0 {
			return "reject on " + id, d.rt.RejectChange(id, "owner", "no")
		}
		_, err := d.rt.AcceptChangeSummary(id, "owner", d.landing())
		return "accept on " + id, err
	case 7: // owner switches the model outright
		_, err := d.rt.SwitchModelSummary(id, "owner", d.models[d.rng.Intn(len(d.models))], d.landing())
		return "switch " + id, err
	case 8:
		return "annotate " + id, d.rt.Annotate(id, "owner", "note")
	default: // clock forward, past deadlines
		d.clock.Advance(time.Duration(d.rng.Intn(6*24)) * time.Hour)
		return "clock forward", nil
	}
}

// nextVersion returns the model version an instance of modelName gets
// proposed: v2 for v1 instances, v1 back for v2 ones.
func (d *aggMutator) nextVersion(modelName string) *core.Model {
	for i, m := range d.models {
		if m.Name == modelName {
			return d.models[(i+2)%len(d.models)]
		}
	}
	return d.models[0]
}

// landing picks a migration's landing phase: usually "" (stay put),
// otherwise a phase of either model family. A landing the new model
// lacks fails with ErrUnknownPhase and counts as a skipped operation.
func (d *aggMutator) landing() string {
	return []string{"", "", "a1", "b2", "adone", "bno"}[d.rng.Intn(6)]
}

// legalSkip reports errors a random operation may legitimately hit.
func legalSkip(err error) bool {
	return errors.Is(err, runtime.ErrUnknownPhase) || errors.Is(err, runtime.ErrNoPending)
}

// stepBackPastLate moves the clock back to the due time of the latest-
// due late instance, where it is no longer late (lateness is strictly
// after the due time), so the step provably takes a late instance back
// out of the late count. It reports false when nothing is late.
func stepBackPastLate(src Source, clock *vclock.Fake) bool {
	now := clock.Now()
	var latest time.Time
	src.ForEachSummary(runtime.Filter{LateOnly: true, Now: now}, 0, func(s runtime.Summary) bool {
		if s.Due.After(latest) {
			latest = s.Due
		}
		return true
	})
	if latest.IsZero() {
		return false
	}
	clock.Set(latest)
	return true
}

func checkAgainstScan(t *testing.T, mon *Monitor, src Source, now time.Time, when string) Summary {
	t.Helper()
	got := mon.Summarize()
	want := scanSummary(src, now)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: aggregate diverged from the scan\n got %+v\nwant %+v", when, got, want)
	}
	return got
}

// TestCockpitAggregateMatchesScan drives a seeded random mix of every
// mutating operation — instantiates across models with offset and
// absolute deadlines, suggested and deviating advances (into final
// phases too), failed dispatches and action reports, proposals
// accepted and rejected, model switches, annotations, clock moves
// forward past deadlines and one step back — and checks Summarize
// against a full recount after every operation. It then snapshots the
// population the way Compact's fold does, mutates further, restarts
// from the snapshot images plus the journal tail, and checks again.
func TestCockpitAggregateMatchesScan(t *testing.T) {
	clock := vclock.NewFake(aggT0)
	var mu sync.Mutex
	type rec struct {
		id   string
		data []byte
	}
	var journal []rec
	sink := runtime.JournalFunc(func(r *runtime.JournalRecord) error {
		data, err := r.Encode()
		if err != nil {
			return err
		}
		mu.Lock()
		journal = append(journal, rec{r.Instance, data})
		mu.Unlock()
		return nil
	})
	rt := aggRuntime(t, clock, sink, 4)
	mon := New(rt, clock)
	d := &aggMutator{rt: rt, clock: clock, rng: rand.New(rand.NewSource(7)), models: aggModels(), name: "m"}

	const ops = 600
	steppedBack := false
	for i := 0; i < ops; i++ {
		name, err := d.step()
		if err != nil && !legalSkip(err) {
			t.Fatalf("op %d (%s): %v", i, name, err)
		}
		sum := checkAgainstScan(t, mon, rt, clock.Now(), fmt.Sprintf("op %d (%s)", i, name))
		if sum.Late > 0 && !steppedBack && i >= ops/2 {
			stepBackPastLate(rt, clock)
			steppedBack = true
			if back := checkAgainstScan(t, mon, rt, clock.Now(), "clock step back"); back.Late >= sum.Late {
				t.Fatalf("stepping back before a due time left late at %d (was %d)", back.Late, sum.Late)
			}
		}
	}
	if !steppedBack {
		t.Fatal("no instance was late in the second half of the run; the lateness path went untested")
	}
	before := checkAgainstScan(t, mon, rt, clock.Now(), "end of run")
	if before.Proposals == 0 || before.Failed == 0 || before.Deviations == 0 || before.Completed == 0 {
		t.Fatalf("the run left a counter untested: %+v", before)
	}
	if st := rt.RuntimeStats().PopulationIndex; st.AggregateRewinds == 0 {
		t.Fatalf("the clock step back never rewound the late sweep: %+v", st)
	}

	// Compact: one snapshot image per instance, then a journal tail
	// written after it.
	var images []rec
	if err := rt.EmitSnapshots(func(id string, data []byte) error {
		images = append(images, rec{id, append([]byte(nil), data...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	cut := len(journal)
	mu.Unlock()
	for i := 0; i < 60; i++ {
		if name, err := d.step(); err != nil && !legalSkip(err) {
			t.Fatalf("tail op %d (%s): %v", i, name, err)
		}
	}
	want := checkAgainstScan(t, mon, rt, clock.Now(), "end of tail")

	// Restart: replay the images, then the tail.
	rt2 := aggRuntime(t, clock, nil, 0)
	for _, r := range images {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("replay snapshot %s: %v", r.id, err)
		}
	}
	mu.Lock()
	tail := journal[cut:]
	mu.Unlock()
	for _, r := range tail {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatalf("replay tail record of %s: %v", r.id, err)
		}
	}
	rt2.FinishRecovery()
	mon2 := New(rt2, clock)
	if got := checkAgainstScan(t, mon2, rt2, clock.Now(), "after restart"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart changed the summary\n got %+v\nwant %+v", got, want)
	}

	// The recovered runtime keeps maintaining it.
	d.rt = rt2
	for i := 0; i < 60; i++ {
		name, err := d.step()
		if err != nil && !legalSkip(err) {
			t.Fatalf("post-restart op %d (%s): %v", i, name, err)
		}
		checkAgainstScan(t, mon2, rt2, clock.Now(), fmt.Sprintf("post-restart op %d (%s)", i, name))
	}
}

// TestCockpitAggregateConcurrent races mutators over disjoint instance
// sets against summary readers and a clock that mostly moves forward
// but sometimes steps back. Every read must be internally consistent
// (one aggregate lock means one state), and once the writers stop the
// aggregate must equal the full recount.
func TestCockpitAggregateConcurrent(t *testing.T) {
	const (
		writers   = 4
		opsPerW   = 300
		readers   = 2
		clockStep = 7 * time.Hour
	)
	clock := vclock.NewFake(aggT0)
	rt := aggRuntime(t, clock, nil, 5)
	mon := New(rt, clock)

	var wg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := &aggMutator{rt: rt, clock: clock, rng: rand.New(rand.NewSource(int64(100 + w))),
				models: aggModels(), name: fmt.Sprintf("w%d", w)}
			for i := 0; i < opsPerW; i++ {
				if name, err := d.step(); err != nil && !legalSkip(err) {
					t.Errorf("writer %d op %d (%s): %v", w, i, name, err)
					return
				}
			}
		}(w)
	}
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // the clock: forward, and every fifth tick back
		defer aux.Done()
		for i := 1; !done.Load(); i++ {
			if i%5 == 0 {
				clock.Advance(-3 * clockStep)
			} else {
				clock.Advance(clockStep)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for r := 0; r < readers; r++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for !done.Load() {
				s := mon.Summarize()
				phases, models := 0, 0
				for _, n := range s.ByPhase {
					phases += n
				}
				for _, n := range s.ByModel {
					models += n
				}
				if s.Active+s.Completed != s.Total || phases != s.Total || models != s.Total ||
					s.Late > s.Active || s.NotStarted != s.ByPhase[runtime.NotStartedPhase] {
					t.Errorf("inconsistent read: %+v", s)
					return
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	aux.Wait()
	checkAgainstScan(t, mon, rt, clock.Now(), "quiescent")
	clock.Advance(40 * 24 * time.Hour)
	checkAgainstScan(t, mon, rt, clock.Now(), "quiescent, clock forward")
	if !stepBackPastLate(rt, clock) {
		t.Fatal("nothing late 40 days on; the lateness path went untested")
	}
	checkAgainstScan(t, mon, rt, clock.Now(), "quiescent, clock stepped back")
}
