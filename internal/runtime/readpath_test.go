package runtime

// Tests for the copy-free read path: event paging, ring truncation,
// summary-mode mutation results, incremental counters, and
// invocation-index GC.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/vclock"
)

// newEnvWithConfig builds the standard test env with read-path knobs.
func newEnvWithConfig(t testing.TB, mutate func(*Config)) *env {
	t.Helper()
	inv := &recordingInvoker{status: actionlib.StatusCompleted}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	cfg := Config{
		Registry:    testActions(t),
		Invoker:     inv,
		Clock:       clock,
		SyncActions: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inv.rt = rt
	return &env{rt: rt, inv: inv, clock: clock}
}

// annotateN appends n annotation events.
func annotateN(t testing.TB, rt *Runtime, id string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := rt.Annotate(id, "owner", fmt.Sprintf("note %d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEventsPaging(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	annotateN(t, e.rt, id, 9) // created + 9 = 10 events, seqs 1..10

	// Full read from the start.
	page, err := e.rt.Events(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 10 || page.Total != 10 || page.OldestSeq != 1 || page.Truncated {
		t.Fatalf("full page = %d events, total=%d oldest=%d truncated=%t",
			len(page.Events), page.Total, page.OldestSeq, page.Truncated)
	}
	for i, ev := range page.Events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}

	// Cursor in the middle, bounded limit.
	page, _ = e.rt.Events(id, 4, 3)
	if len(page.Events) != 3 || page.Events[0].Seq != 5 || page.Events[2].Seq != 7 {
		t.Fatalf("page after=4 limit=3 = %+v", page.Events)
	}

	// limit=0 means unbounded remainder.
	page, _ = e.rt.Events(id, 7, 0)
	if len(page.Events) != 3 || page.Events[0].Seq != 8 {
		t.Fatalf("page after=7 limit=0 = %+v", page.Events)
	}

	// after at the tail and beyond it: empty page, not an error.
	for _, after := range []int{10, 11, 1000} {
		page, err = e.rt.Events(id, after, 5)
		if err != nil || len(page.Events) != 0 || page.Total != 10 {
			t.Fatalf("after=%d: err=%v events=%d total=%d", after, err, len(page.Events), page.Total)
		}
	}

	// Negative after behaves like 0.
	page, _ = e.rt.Events(id, -3, 2)
	if len(page.Events) != 2 || page.Events[0].Seq != 1 {
		t.Fatalf("negative after = %+v", page.Events)
	}

	// Unknown instance.
	if _, err := e.rt.Events("ghost", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("page for missing instance: %v", err)
	}
}

// TestTimeline reads an instance's whole history as one page, from
// its creation to its last annotation.
func TestTimeline(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	e.rt.Annotate(id, "owner", "waiting on partner text")
	page, err := e.rt.Events(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl := page.Events
	if len(tl) < 3 {
		t.Fatalf("timeline = %d entries", len(tl))
	}
	if tl[0].Kind != EventCreated {
		t.Fatalf("first entry = %+v", tl[0])
	}
	last := tl[len(tl)-1]
	if last.Kind != EventAnnotated || last.Detail != "waiting on partner text" {
		t.Fatalf("last entry = %+v", last)
	}
	if _, err := e.rt.Events("ghost", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("timeline for missing instance: %v", err)
	}
}

// TestTimelinePagePaging walks a history by the page's own cursor.
func TestTimelinePagePaging(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})
	for i := 0; i < 8; i++ {
		e.rt.Annotate(id, "owner", "note")
	}
	// created + phase-entered + 8 annotations = 10 events.
	page, err := e.rt.Events(id, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Events) != 4 || page.Total != 10 || page.OldestSeq != 1 || page.Truncated {
		t.Fatalf("page = %+v", page)
	}
	if page.NextAfter != 4 {
		t.Fatalf("next_after = %d", page.NextAfter)
	}
	// Follow the cursor to the tail.
	var got []Event
	got = append(got, page.Events...)
	for page.NextAfter != 0 {
		page, _ = e.rt.Events(id, page.NextAfter, 4)
		got = append(got, page.Events...)
	}
	if len(got) != 10 {
		t.Fatalf("cursor walk collected %d entries", len(got))
	}
	for i, en := range got {
		if en.Seq != i+1 {
			t.Fatalf("entry %d has seq %d", i, en.Seq)
		}
	}
	// Beyond the tail: empty page, no cursor.
	page, _ = e.rt.Events(id, 99, 4)
	if page.Events == nil || len(page.Events) != 0 || page.NextAfter != 0 {
		t.Fatalf("past-tail page = %+v", page)
	}
	// limit <= 0 returns the remainder.
	page, _ = e.rt.Events(id, 6, 0)
	if len(page.Events) != 4 || page.Events[0].Seq != 7 || page.NextAfter != 0 {
		t.Fatalf("unbounded page = %+v", page.Events)
	}
	if _, err := e.rt.Events("ghost", 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("page for missing instance: %v", err)
	}
}

// TestTimelinePageTruncatedPrefix: the prefix the ring dropped is
// still paged from its start, served from the spill.
func TestTimelinePageTruncatedPrefix(t *testing.T) {
	e := newEnvWithConfig(t, func(c *Config) { c.MaxEventsInMemory = 8 })
	snap := e.instantiate(t)
	annotateN(t, e.rt, snap.ID, 30)
	// No History is wired, so the runtime keeps the prefix in RAM.
	page, err := e.rt.Events(snap.ID, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if page.Truncated || page.OldestSeq <= 1 || page.Backfilled != 5 {
		t.Fatalf("truncated prefix not served from the spill: %+v", page)
	}
	if len(page.Events) != 5 || page.Events[0].Seq != 1 || page.NextAfter != 5 {
		t.Fatalf("page does not start at the first seq: %+v", page)
	}
	if page.Total != 31 {
		t.Fatalf("total = %d", page.Total)
	}
	// The cockpit aggregate is unaffected by the truncation.
	if agg := e.rt.Aggregate(e.clock.Now()); agg.Total != 1 || agg.Deviations != 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestEventTruncationRing(t *testing.T) {
	const max = 20
	e := newEnvWithConfig(t, func(c *Config) { c.MaxEventsInMemory = max })
	snap := e.instantiate(t)
	id := snap.ID
	annotateN(t, e.rt, id, 99) // 100 events total, seqs 1..100

	sum, _ := e.rt.Summary(id)
	if sum.Events != 100 {
		t.Fatalf("summary events = %d, want 100 (total, not retained)", sum.Events)
	}
	if sum.TruncatedEvents == 0 {
		t.Fatal("no events truncated at 5x the cap")
	}

	// The ring retains between max and 1.25*max events, ending at the
	// tail with gapless seqs.
	got, _ := e.rt.Instance(id)
	if n := len(got.Events); n < max || n > max+max/4 {
		t.Fatalf("retained %d events, want within [%d, %d]", n, max, max+max/4)
	}
	last := got.Events[len(got.Events)-1]
	if last.Seq != 100 {
		t.Fatalf("tail seq = %d", last.Seq)
	}
	for i := 1; i < len(got.Events); i++ {
		if got.Events[i].Seq != got.Events[i-1].Seq+1 {
			t.Fatalf("retained window has a gap at %d", i)
		}
	}
	oldest := got.Events[0].Seq
	if oldest != sum.TruncatedEvents+1 {
		t.Fatalf("oldest retained seq %d != truncated+1 (%d)", oldest, sum.TruncatedEvents+1)
	}

	// A paged read into the truncated prefix is served from the spill
	// (no History is wired, so nothing was archived) and says so.
	page, err := e.rt.Events(id, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if page.Truncated || page.Backfilled != 5 || page.OldestSeq != oldest {
		t.Fatalf("prefix page: truncated=%t backfilled=%d oldest=%d", page.Truncated, page.Backfilled, page.OldestSeq)
	}
	if len(page.Events) != 5 || page.Events[0].Seq != 1 || page.Events[4].Seq != 5 {
		t.Fatalf("prefix page events = %+v", page.Events)
	}
	if page.Total != 100 {
		t.Fatalf("page total = %d", page.Total)
	}
	// A page straddling spill and ring counts only the spill part.
	page, _ = e.rt.Events(id, oldest-3, 5)
	if page.Backfilled != 2 || len(page.Events) != 5 || page.Events[0].Seq != oldest-2 {
		t.Fatalf("straddling page: backfilled=%d events=%+v", page.Backfilled, page.Events)
	}
	// The full history stitches without a gap.
	page, _ = e.rt.Events(id, 0, 0)
	if len(page.Events) != 100 || page.Backfilled != oldest-1 {
		t.Fatalf("full page: %d events, backfilled %d", len(page.Events), page.Backfilled)
	}
	for i, ev := range page.Events {
		if ev.Seq != i+1 {
			t.Fatalf("stitched history has a gap at %d: seq %d", i, ev.Seq)
		}
	}

	// Reads entirely within the ring are not backfilled.
	page, _ = e.rt.Events(id, oldest-1, 5)
	if page.Truncated || page.Backfilled != 0 {
		t.Fatalf("in-ring read: truncated=%t backfilled=%d", page.Truncated, page.Backfilled)
	}
	if page.Events[0].Seq != oldest {
		t.Fatalf("in-ring first seq = %d", page.Events[0].Seq)
	}

	// Runtime-wide counters agree: nothing folds without a History, so
	// every truncated event is still in RAM, in the spill.
	st := e.rt.RuntimeStats()
	if st.EventsTruncated != int64(sum.TruncatedEvents) || st.EventsInMemory != 100 {
		t.Fatalf("stats truncated=%d in-memory=%d, want %d and 100",
			st.EventsTruncated, st.EventsInMemory, sum.TruncatedEvents)
	}
}

// TestTruncationPreservesAggregates is the acceptance-criterion guard:
// the same workload with and without ring truncation yields identical
// summaries (and therefore identical cockpit aggregates), because the
// counters are incremental, not recomputed from history.
func TestTruncationPreservesAggregates(t *testing.T) {
	run := func(maxEvents int) []Summary {
		e := newEnvWithConfig(t, func(c *Config) { c.MaxEventsInMemory = maxEvents })
		for i := 0; i < 6; i++ {
			snap, err := e.rt.Instantiate(fig1(t), wikiRef(), "owner",
				map[string]map[string]string{
					"http://www.liquidpub.org/a/notify": {"reviewers": "alice"},
				})
			if err != nil {
				t.Fatal(err)
			}
			// A deviation, a reopen cycle, action phases and annotations:
			// every counter moves.
			e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
			e.rt.Advance(snap.ID, "eureview", "owner", AdvanceOptions{Annotation: "deviate"})
			annotateN(t, e.rt, snap.ID, 30)
			e.rt.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{})
			if i%2 == 0 {
				e.rt.Advance(snap.ID, "accepted", "owner", AdvanceOptions{})
				e.rt.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}) // reopen
			}
		}
		e.rt.WaitDispatch()
		sums := summaries(e.rt)
		// Blank the truncation-dependent field; everything else must be
		// identical across runs.
		for i := range sums {
			sums[i].TruncatedEvents = 0
		}
		return sums
	}

	unbounded := run(0)
	truncated := run(8)
	if len(unbounded) != len(truncated) {
		t.Fatalf("population mismatch: %d vs %d", len(unbounded), len(truncated))
	}
	for i := range unbounded {
		a, b := unbounded[i], truncated[i]
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("summary %d diverges under truncation:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

func TestAdvanceSummaryResult(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID

	res, err := e.rt.AdvanceSummary(id, "elaboration", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Current != "elaboration" || res.Summary.State != StateActive {
		t.Fatalf("summary = %+v", res.Summary)
	}
	// Only the events appended by this move: the phase-entered event
	// (elaboration has no actions).
	if len(res.Events) != 1 || res.Events[0].Kind != EventPhaseEntered {
		t.Fatalf("appended events = %+v", res.Events)
	}
	if res.Events[0].Seq != res.Summary.Events {
		t.Fatalf("appended tail seq %d != summary total %d", res.Events[0].Seq, res.Summary.Events)
	}

	// Entering an action phase appends action-started events too, and
	// the due date of the entered phase rides on the summary.
	res, err = e.rt.AdvanceSummary(id, "internalreview", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[EventKind]int{}
	for _, ev := range res.Events {
		kinds[ev.Kind]++
	}
	if kinds[EventPhaseEntered] != 1 || kinds[EventActionStarted] != 2 {
		t.Fatalf("appended kinds = %v", kinds)
	}
	// Events are contiguous and end at the summary's total.
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Seq != res.Events[i-1].Seq+1 {
			t.Fatalf("appended events not contiguous: %+v", res.Events)
		}
	}
	if res.Events[len(res.Events)-1].Seq != res.Summary.Events {
		t.Fatal("appended events do not end at the summary total")
	}

	// Completing carries the completed event; due date for elaboration
	// came from the model's deadline.
	res, err = e.rt.AdvanceSummary(id, "accepted", "owner", AdvanceOptions{Annotation: "fast-track"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.State != StateCompleted {
		t.Fatalf("state = %s", res.Summary.State)
	}
	last := res.Events[len(res.Events)-1]
	if last.Kind != EventCompleted {
		t.Fatalf("last appended = %+v", last)
	}
	if res.Summary.Deviations != 1 {
		t.Fatalf("deviations = %d after fast-track", res.Summary.Deviations)
	}

	// Errors mirror Advance.
	if _, err := e.rt.AdvanceSummary(id, "nope", "owner", AdvanceOptions{}); err == nil {
		t.Fatal("unknown phase accepted")
	}
	if _, err := e.rt.AdvanceSummary("ghost", "elaboration", "owner", AdvanceOptions{}); err == nil {
		t.Fatal("missing instance accepted")
	}
}

func TestSummaryDueDateAndLate(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	res, err := e.rt.AdvanceSummary(snap.ID, "elaboration", "owner", AdvanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if sum.PhaseName != "Elaboration" {
		t.Fatalf("phase name = %q", sum.PhaseName)
	}
	wantDue := snap.CreatedAt.Add(10 * 24 * time.Hour)
	if !sum.Due.Equal(wantDue) {
		t.Fatalf("due = %v, want %v", sum.Due, wantDue)
	}
	if sum.Late(e.clock.Now()) {
		t.Fatal("late before the deadline")
	}
	if !sum.Late(e.clock.Now().Add(11 * 24 * time.Hour)) {
		t.Fatal("not late after the deadline")
	}
	// Phases without a deadline are never late.
	res, _ = e.rt.AdvanceSummary(snap.ID, "internalreview", "owner", AdvanceOptions{})
	if !res.Summary.Due.IsZero() || res.Summary.Late(e.clock.Now().Add(1000*time.Hour)) {
		t.Fatalf("internalreview due = %v", res.Summary.Due)
	}
}

func TestAcceptChangeSummaryAndSwitchModelSummary(t *testing.T) {
	e := newEnv(t)
	snap := e.instantiate(t)
	id := snap.ID
	e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{})

	v2 := fig1(t)
	v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival"})
	if err := e.rt.ProposeChange(id, "designer", v2, "add archival"); err != nil {
		t.Fatal(err)
	}
	res, err := e.rt.AcceptChangeSummary(id, "owner", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Pending != "" {
		t.Fatal("pending survived accept")
	}
	if len(res.Events) != 1 || res.Events[0].Kind != EventChangeApplied {
		t.Fatalf("appended = %+v", res.Events)
	}
	if res.Events[0].Seq != res.Summary.Events {
		t.Fatal("appended events do not end at the summary total")
	}

	// Owner switch in summary mode, landing on a final phase: the
	// completed-by-migration event follows the change-applied event.
	v3, err := core.NewModel("urn:gelee:models:simple", "Simple").
		Phase("only", "Only").
		FinalPhase("done", "Done").
		Initial("only").Transition("only", "done").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sres, err := e.rt.SwitchModelSummary(id, "owner", v3, "done")
	if err != nil {
		t.Fatal(err)
	}
	if sres.Summary.State != StateCompleted || sres.Summary.ModelURI != v3.URI {
		t.Fatalf("switch summary = %+v", sres.Summary)
	}
	if len(sres.Events) != 2 || sres.Events[0].Kind != EventChangeApplied || sres.Events[1].Kind != EventCompleted {
		t.Fatalf("switch appended = %+v", sres.Events)
	}
	if sres.Events[1].Seq != sres.Summary.Events {
		t.Fatal("switch events do not end at the summary total")
	}
}

// TestIncrementalCountersMatchRecount pins every maintained counter to
// a recount over the full history for a workload that exercises
// deviations, prep failures, dispatch failures, async callbacks and
// migration.
func TestIncrementalCountersMatchRecount(t *testing.T) {
	// Async actions with no callback: executions stay pending.
	inv := &recordingInvoker{}
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := New(Config{Registry: testActions(t), Invoker: inv, Clock: clock, SyncActions: true})
	if err != nil {
		t.Fatal(err)
	}
	inv.fail = map[string]bool{"http://www.liquidpub.org/a/pdf": true} // dispatch error path

	// An unresolvable action: zoho has no implementations registered.
	snapA, err := rt.Instantiate(fig1(t), resource.Ref{URI: "urn:z:1", Type: "zoho"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A resolvable instance that fails one dispatch and leaves others pending.
	snapB, err := rt.Instantiate(fig1(t), wikiRef(), "owner",
		map[string]map[string]string{"http://www.liquidpub.org/a/notify": {"reviewers": "a"}})
	if err != nil {
		t.Fatal(err)
	}

	rt.Advance(snapA.ID, "internalreview", "owner", AdvanceOptions{}) // deviation + 2 prep failures
	rt.Advance(snapB.ID, "elaboration", "owner", AdvanceOptions{})
	rt.Advance(snapB.ID, "internalreview", "owner", AdvanceOptions{}) // 2 pending dispatches
	rt.Advance(snapB.ID, "finalassembly", "owner", AdvanceOptions{})  // pdf dispatch fails
	rt.WaitDispatch()
	// Resolve one of B's pending invocations via callback, as failed.
	b, _ := rt.Instance(snapB.ID)
	var open string
	for _, ex := range b.Executions {
		if !ex.Terminal {
			open = ex.InvocationID
			break
		}
	}
	if open == "" {
		t.Fatal("no pending execution to fail")
	}
	if err := rt.Report(actionlib.StatusUpdate{InvocationID: open, Message: actionlib.StatusFailed, Detail: "boom"}); err != nil {
		t.Fatal(err)
	}

	for _, id := range []string{snapA.ID, snapB.ID} {
		snap, _ := rt.Instance(id)
		sum, _ := rt.Summary(id)
		var dev, failed, pending int
		for _, ev := range snap.Events {
			if ev.Kind == EventPhaseEntered && ev.Deviation {
				dev++
			}
		}
		for _, ex := range snap.Executions {
			switch {
			case ex.Terminal && ex.LastStatus == actionlib.StatusFailed:
				failed++
			case !ex.Terminal:
				pending++
			}
		}
		if sum.Deviations != dev || sum.FailedSteps != failed || sum.PendingInvocations != pending {
			t.Fatalf("%s: counters (dev=%d fail=%d pend=%d) != recount (dev=%d fail=%d pend=%d)",
				id, sum.Deviations, sum.FailedSteps, sum.PendingInvocations, dev, failed, pending)
		}
		if failed == 0 && id == snapB.ID {
			t.Fatal("workload failed to produce a failed step on B")
		}
	}
}

// TestInvocationIndexGC proves the callback-routing index no longer
// grows monotonically: terminal entries age out after the grace window,
// swept piggyback on later mutations (or explicitly).
func TestInvocationIndexGC(t *testing.T) {
	const grace = time.Hour
	e := newEnvWithConfig(t, func(c *Config) { c.InvocationRetention = grace })
	snap := e.instantiate(t)
	id := snap.ID

	peak := 0
	for round := 0; round < 5; round++ {
		// internalreview dispatches 2 actions; the sync invoker reports
		// them completed immediately, which schedules their GC.
		if _, err := e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.rt.Advance(id, "elaboration", "owner", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
		if n := e.rt.RuntimeStats().Invocations; n > peak {
			peak = n
		}
		e.clock.Advance(grace + time.Minute)
	}
	// One more mutation after the last window expires sweeps the stripe
	// it touches; SweepInvocations reclaims the rest promptly.
	e.rt.SweepInvocations()

	st := e.rt.RuntimeStats()
	if st.Invocations != 0 {
		t.Fatalf("live index = %d after all grace windows passed", st.Invocations)
	}
	if st.InvocationsGCed != 10 {
		t.Fatalf("gced = %d, want 10", st.InvocationsGCed)
	}
	if peak >= 10 {
		t.Fatalf("index peaked at %d — grew monotonically despite GC", peak)
	}

	// Entries inside their grace window still route late callbacks.
	got, _ := e.rt.Instance(id)
	e.rt.Advance(id, "internalreview", "owner", AdvanceOptions{})
	after, _ := e.rt.Instance(id)
	lastInv := after.Executions[len(after.Executions)-1].InvocationID
	if err := e.rt.Report(actionlib.StatusUpdate{InvocationID: lastInv, Message: "still-here"}); err != nil {
		t.Fatalf("in-window callback rejected: %v", err)
	}
	// Aged-out entries do not.
	oldInv := got.Executions[0].InvocationID
	if err := e.rt.Report(actionlib.StatusUpdate{InvocationID: oldInv, Message: "too-late"}); err == nil {
		t.Fatal("aged-out invocation still routed")
	}
	_ = got
}

// TestSummaryAccessor pins Runtime.Summary and Runtime.Count.
func TestSummaryAccessor(t *testing.T) {
	e := newEnv(t)
	if e.rt.Count() != 0 {
		t.Fatal("count on empty runtime")
	}
	snap := e.instantiate(t)
	e.instantiate(t)
	if e.rt.Count() != 2 {
		t.Fatalf("count = %d", e.rt.Count())
	}
	sum, ok := e.rt.Summary(snap.ID)
	if !ok || sum.ID != snap.ID || sum.ModelName != "EU Project deliverable lifecycle" {
		t.Fatalf("summary = %+v", sum)
	}
	if _, ok := e.rt.Summary("ghost"); ok {
		t.Fatal("summary for missing instance")
	}
}
