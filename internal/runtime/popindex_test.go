package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/vclock"
)

// popModel: a plain three-phase lifecycle with no actions, so advances
// never touch the dispatcher — the population-index tests drive
// membership and ordering, not action plumbing. The work phase carries
// a deadline so lateness filters have something to match.
func popModel() *core.Model {
	return core.NewModel("urn:pop:model", "Pop").
		Phase("draft", "Draft").
		Phase("work", "Work").DueIn(24*time.Hour).Done().
		FinalPhase("done", "Done").
		Initial("draft").
		Transition("draft", "work").Transition("work", "done").
		MustBuild()
}

func popRuntime(t testing.TB, cfg Config) *Runtime {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = actionlib.NewRegistry()
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func popRef(i int) resource.Ref {
	return resource.Ref{URI: fmt.Sprintf("urn:pop:res-%d", i%5), Type: "doc"}
}

// assertIndexMatchesCollectAll compares the population index against
// the collectAll ground truth: same length, same instances, same order.
func assertIndexMatchesCollectAll(t *testing.T, rt *Runtime) {
	t.Helper()
	ground := rt.collectAll()
	refs, more := rt.pageRefs(0, 0)
	if more {
		t.Fatalf("unbounded pageRefs reported more")
	}
	if len(refs) != len(ground) {
		t.Fatalf("index holds %d instances, collectAll %d", len(refs), len(ground))
	}
	for i := range ground {
		if refs[i] != ground[i] {
			t.Fatalf("index[%d] = %s (seq %d), collectAll[%d] = %s (seq %d)",
				i, refs[i].id, refs[i].seq, i, ground[i].id, ground[i].seq)
		}
	}
}

// TestPopulationIndexStress races instantiates, advances, snapshot
// folds (EmitSnapshots' instPub barrier) and paged readers against
// each other, then asserts the ordered index's membership and order
// exactly match the collectAll ground truth — and again after a full
// journal replay into a fresh runtime (run with -race).
func TestPopulationIndexStress(t *testing.T) {
	const (
		creators    = 4
		perCreator  = 60
		advancers   = 2
		readers     = 2
		folds       = 20
		pageStep    = 37
		readerLoops = 30
	)
	sink := &captureSink{}
	rt := popRuntime(t, Config{Journal: sink})
	model := popModel()

	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		idsMu   sync.Mutex
		liveIDs []string
	)
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCreator; i++ {
				snap, err := rt.Instantiate(model, popRef(c*perCreator+i), "owner", nil)
				if err != nil {
					t.Errorf("instantiate: %v", err)
					return
				}
				idsMu.Lock()
				liveIDs = append(liveIDs, snap.ID)
				idsMu.Unlock()
			}
		}(c)
	}
	for a := 0; a < advancers; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				idsMu.Lock()
				var id string
				if len(liveIDs) > 0 {
					id = liveIDs[(a*7+i)%len(liveIDs)]
				}
				idsMu.Unlock()
				if id == "" {
					continue
				}
				// Deviations and re-advances are legal; only transport
				// errors matter here.
				_, _ = rt.Advance(id, "work", "owner", AdvanceOptions{})
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < folds; i++ {
			if err := rt.EmitSnapshots(func(string, []byte) error { return nil }); err != nil {
				t.Errorf("fold: %v", err)
				return
			}
		}
	}()
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readerLoops; i++ {
				var after int64
				seen := make(map[string]bool)
				for {
					page := rt.SummariesPage(after, pageStep)
					last := after
					for _, s := range page.Summaries {
						if s.Seq <= last {
							t.Errorf("page out of order: seq %d after %d", s.Seq, last)
							return
						}
						last = s.Seq
						if seen[s.ID] {
							t.Errorf("duplicate %s in one walk", s.ID)
							return
						}
						seen[s.ID] = true
					}
					if page.NextAfter == 0 {
						break
					}
					after = page.NextAfter
				}
			}
		}()
	}
	// Creators finish first; then release the advancers so the test
	// bounds its runtime.
	go func() {
		for rt.Count() < creators*perCreator {
			time.Sleep(time.Millisecond)
		}
		stop.Store(true)
	}()
	wg.Wait()
	stop.Store(true)

	assertIndexMatchesCollectAll(t, rt)
	if got := rt.RuntimeStats().PopulationIndex.Entries; got != creators*perCreator {
		t.Fatalf("index entries = %d, want %d", got, creators*perCreator)
	}

	// Replay everything into a fresh runtime: the index must be rebuilt
	// as a side effect of replay and agree with its own ground truth
	// and with the live population's membership.
	rt2 := popRuntime(t, Config{})
	sink.replayInto(t, rt2)
	assertIndexMatchesCollectAll(t, rt2)
	want := rt.Summaries()
	got := rt2.Summaries()
	if len(want) != len(got) {
		t.Fatalf("replayed population = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Seq != got[i].Seq {
			t.Fatalf("replayed[%d] = %s/%d, want %s/%d", i, got[i].ID, got[i].Seq, want[i].ID, want[i].Seq)
		}
	}
}

// TestPopulationIndexReplayFromSnapshots rebuilds a runtime from
// folded snapshot records only and checks the index order — the
// replaySnapshot publication site.
func TestPopulationIndexReplayFromSnapshots(t *testing.T) {
	rt := popRuntime(t, Config{})
	model := popModel()
	for i := 0; i < 40; i++ {
		if _, err := rt.Instantiate(model, popRef(i), "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	var recs []capturedRec
	if err := rt.EmitSnapshots(func(id string, data []byte) error {
		recs = append(recs, capturedRec{id: id, data: data})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rt2 := popRuntime(t, Config{})
	// Snapshots are emitted in shard order, not seq order — exactly the
	// out-of-order insert path the index must absorb.
	for _, r := range recs {
		if err := rt2.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	rt2.FinishRecovery()
	assertIndexMatchesCollectAll(t, rt2)
	if got, want := len(rt2.Summaries()), 40; got != want {
		t.Fatalf("replayed population = %d, want %d", got, want)
	}
}

// TestSummariesPageCursorStability walks the population by cursor
// while creators keep instantiating, and asserts the walk never skips
// or duplicates an instance that existed before it started — the
// invariant the collectAll scan gave for free and the ordered index
// must preserve. Each creator has a fixed budget, so every walk
// eventually catches up with the tail (NextAfter == 0) instead of
// chasing an unbounded population. The creators start with the first
// walk, which holds its second page until a create has landed, so at
// least one walk provably runs while creates are in flight.
func TestSummariesPageCursorStability(t *testing.T) {
	const (
		preSeeded  = 150
		creators   = 3
		perCreator = 200
		walks      = 25
	)
	rt := popRuntime(t, Config{})
	model := popModel()
	pre := make(map[string]int64, preSeeded)
	for i := 0; i < preSeeded; i++ {
		snap, err := rt.Instantiate(model, popRef(i), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := rt.Summary(snap.ID)
		pre[snap.ID] = sum.Seq
	}

	var wg sync.WaitGroup
	var created atomic.Int64
	start := make(chan struct{})
	// firstCreate closes once a create has landed, or once a creator
	// gives up, so the first walk never waits on a creator that failed.
	firstCreate := make(chan struct{})
	var firstOnce sync.Once
	signal := func() { firstOnce.Do(func() { close(firstCreate) }) }
	for c := 0; c < creators; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer signal()
			<-start
			for i := 0; i < perCreator; i++ {
				if _, err := rt.Instantiate(model, popRef(c+i), "owner", nil); err != nil {
					t.Errorf("instantiate: %v", err)
					return
				}
				created.Add(1)
				signal()
			}
		}(c)
	}

	overlapped := 0
	for walk := 0; walk < walks; walk++ {
		createdBefore := created.Load()
		if walk == 0 {
			close(start)
		}
		seen := make(map[string]bool)
		var after int64
		for pages := 0; ; pages++ {
			if walk == 0 && pages == 1 {
				<-firstCreate
			}
			page := rt.SummariesPage(after, 7)
			for _, s := range page.Summaries {
				if _, isPre := pre[s.ID]; isPre {
					if seen[s.ID] {
						t.Fatalf("walk %d saw pre-existing %s twice", walk, s.ID)
					}
					seen[s.ID] = true
				}
				if s.Seq <= after {
					t.Fatalf("walk %d: cursor went backwards (%d after %d)", walk, s.Seq, after)
				}
				after = s.Seq
			}
			if page.NextAfter == 0 {
				break
			}
			after = page.NextAfter
		}
		if len(seen) != preSeeded {
			t.Fatalf("walk %d saw %d of %d pre-existing instances", walk, len(seen), preSeeded)
		}
		if created.Load() > createdBefore {
			overlapped++
		}
	}
	wg.Wait()
	if overlapped == 0 {
		t.Fatal("no walk ran while creates were in flight")
	}
	if got, want := rt.Count(), preSeeded+creators*perCreator; got != want {
		t.Fatalf("population = %d, want %d", got, want)
	}
	assertIndexMatchesCollectAll(t, rt)
}

// TestSummariesPageMatchesScan pins the indexed page to the deprecated
// collectAll scan across cursors and limits: same summaries, same
// totals, same next cursor.
func TestSummariesPageMatchesScan(t *testing.T) {
	rt := popRuntime(t, Config{Shards: 7})
	model := popModel()
	for i := 0; i < 83; i++ {
		if _, err := rt.Instantiate(model, popRef(i), "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, limit := range []int{0, 1, 7, 83, 200} {
		var after int64
		for pages := 0; ; pages++ {
			idx := rt.SummariesPage(after, limit)
			scan := rt.SummariesPageScan(after, limit)
			if idx.Total != scan.Total || idx.NextAfter != scan.NextAfter || len(idx.Summaries) != len(scan.Summaries) {
				t.Fatalf("limit %d after %d: index {%d items, total %d, next %d} vs scan {%d, %d, %d}",
					limit, after, len(idx.Summaries), idx.Total, idx.NextAfter,
					len(scan.Summaries), scan.Total, scan.NextAfter)
			}
			for i := range idx.Summaries {
				if idx.Summaries[i].ID != scan.Summaries[i].ID {
					t.Fatalf("limit %d after %d item %d: %s vs %s",
						limit, after, i, idx.Summaries[i].ID, scan.Summaries[i].ID)
				}
			}
			if idx.NextAfter == 0 {
				break
			}
			after = idx.NextAfter
		}
	}
	st := rt.RuntimeStats().PopulationIndex
	if st.IndexedQueries == 0 || st.ScanQueries == 0 {
		t.Fatalf("query counters not maintained: %+v", st)
	}
}

// TestQuerySummariesMatchesBruteForce checks every filter route —
// resource index, model index, state and lateness predicates, and
// their combinations — against a brute-force filter of the full
// summary listing, paged and unpaged.
func TestQuerySummariesMatchesBruteForce(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt := popRuntime(t, Config{Clock: clock})
	modelA := popModel()
	modelB := core.NewModel("urn:pop:other", "Other").
		Phase("only", "Only").Done().
		Initial("only").
		MustBuild()
	for i := 0; i < 90; i++ {
		m := modelA
		if i%3 == 0 {
			m = modelB
		}
		snap, err := rt.Instantiate(m, popRef(i), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		if m == modelA {
			switch i % 4 {
			case 1: // sitting in the deadline phase → late once time passes
				if _, err := rt.Advance(snap.ID, "work", "owner", AdvanceOptions{}); err != nil {
					t.Fatal(err)
				}
			case 2: // completed
				if _, err := rt.Advance(snap.ID, "work", "owner", AdvanceOptions{}); err != nil {
					t.Fatal(err)
				}
				if _, err := rt.Advance(snap.ID, "done", "owner", AdvanceOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Push past the 24h deadline so the work-phase dwellers are late.
	clock.Advance(25 * time.Hour)
	now := clock.Now()

	all := rt.Summaries()
	filters := []Filter{
		{},
		{Resource: "urn:pop:res-2"},
		{Resource: "urn:pop:res-2", State: StateCompleted},
		{Resource: "urn:pop:no-such"},
		{ModelURI: "urn:pop:model"},
		{ModelURI: "urn:pop:other", State: StateActive},
		{State: StateCompleted},
		{LateOnly: true, Now: now},
		{Resource: "urn:pop:res-1", LateOnly: true, Now: now},
		{ModelURI: "urn:pop:model", State: StateActive, LateOnly: true, Now: now},
	}
	for fi, f := range filters {
		var want []Summary
		for _, s := range all {
			if f.match(&s, now) {
				want = append(want, s)
			}
		}
		got := rt.QuerySummaries(f, 0, 0)
		if len(got.Summaries) != len(want) {
			t.Fatalf("filter %d: %d matches, want %d", fi, len(got.Summaries), len(want))
		}
		for i := range want {
			if got.Summaries[i].ID != want[i].ID {
				t.Fatalf("filter %d item %d: %s, want %s", fi, i, got.Summaries[i].ID, want[i].ID)
			}
		}
		// The same matches must come back when paging with a small
		// limit and following NextAfter.
		var paged []Summary
		var after int64
		for {
			page := rt.QuerySummaries(f, after, 7)
			paged = append(paged, page.Summaries...)
			if page.NextAfter == 0 {
				break
			}
			after = page.NextAfter
		}
		if len(paged) != len(want) {
			t.Fatalf("filter %d paged: %d matches, want %d", fi, len(paged), len(want))
		}
		for i := range want {
			if paged[i].ID != want[i].ID {
				t.Fatalf("filter %d paged item %d: %s, want %s", fi, i, paged[i].ID, want[i].ID)
			}
		}
		// And streamed through the iterator the monitor uses.
		var streamed []Summary
		rt.ForEachSummary(f, 0, func(s Summary) bool {
			streamed = append(streamed, s)
			return true
		})
		if len(streamed) != len(want) {
			t.Fatalf("filter %d streamed: %d matches, want %d", fi, len(streamed), len(want))
		}
	}

	// Index-served filters report the match count as Total; walked
	// filters report 0 (unknown) — both documented.
	if p := rt.QuerySummaries(Filter{Resource: "urn:pop:res-2"}, 0, 4); p.Total == 0 {
		t.Fatalf("resource-indexed query lost its total")
	}
	if p := rt.QuerySummaries(Filter{}, 0, 4); p.Total != rt.Count() {
		t.Fatalf("unfiltered total = %d, want %d", p.Total, rt.Count())
	}
}

// TestQuerySummariesModelSwitchConsistency pins the model-index
// re-check: after an owner switches an instance to a different model,
// a by-model query must not return it under the old URI.
func TestQuerySummariesModelSwitchConsistency(t *testing.T) {
	rt := popRuntime(t, Config{})
	model := popModel()
	snap, err := rt.Instantiate(model, popRef(1), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	other := core.NewModel("urn:pop:other", "Other").
		Phase("only", "Only").Done().
		Initial("only").
		MustBuild()
	if _, err := rt.SwitchModel(snap.ID, "owner", other, ""); err != nil {
		t.Fatal(err)
	}
	if p := rt.QuerySummaries(Filter{ModelURI: "urn:pop:model"}, 0, 0); len(p.Summaries) != 0 {
		t.Fatalf("switched instance still served under old model URI")
	}
	p := rt.QuerySummaries(Filter{ModelURI: "urn:pop:other"}, 0, 0)
	if len(p.Summaries) != 1 || p.Summaries[0].ID != snap.ID {
		t.Fatalf("switched instance not served under new model URI: %+v", p)
	}
}
