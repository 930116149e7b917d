package runtime

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
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
	// Shuffled, as snapshot files were written before EmitSnapshots
	// walked in creation order: the out-of-order insert path the index
	// must absorb.
	for _, r := range shuffled(recs, 1) {
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

// summaryMatches is the brute-force oracle of Filter.matches: the
// same predicate evaluated on a built Summary.
func summaryMatches(f Filter, s *Summary, now time.Time) bool {
	if f.Resource != "" && s.Resource.URI != f.Resource {
		return false
	}
	if f.ModelURI != "" && s.ModelURI != f.ModelURI {
		return false
	}
	if f.State != "" && s.State != f.State {
		return false
	}
	return !f.LateOnly || s.Late(now)
}

// assertQueriesMatchBruteForce checks QuerySummaries at every cursor
// (0 and each live seq) and limits 0, 1 and 7 against a brute-force
// filter of the collectAll population: the items in creation order,
// Total as SummaryPage defines it, and NextAfter. ForEachSummary and
// ByResource/ByModelURI are checked against the same oracle. Filters
// with LateOnly must carry their Now. Returns the unbounded result of
// each filter at cursor 0, for comparing runtimes.
func assertQueriesMatchBruteForce(t *testing.T, rt *Runtime, filters []Filter) [][]string {
	t.Helper()
	all := rt.collectAll()
	sums := make([]Summary, len(all))
	for i, in := range all {
		in.mu.Lock()
		sums[i] = in.summary()
		in.mu.Unlock()
	}
	cursors := []int64{0}
	for _, s := range sums {
		cursors = append(cursors, s.Seq)
	}
	ids := func(list []Summary) []string {
		out := make([]string, len(list))
		for i, s := range list {
			out[i] = s.ID
		}
		return out
	}
	var firsts [][]string
	for fi, f := range filters {
		var matched []Summary
		for i := range sums {
			if summaryMatches(f, &sums[i], f.Now) {
				matched = append(matched, sums[i])
			}
		}
		firsts = append(firsts, ids(matched))
		for _, after := range cursors {
			var want []Summary
			for _, s := range matched {
				if s.Seq > after {
					want = append(want, s)
				}
			}
			wantTotal := len(want)
			switch {
			case f.zero():
				wantTotal = rt.Count()
			case f.Resource == "" && f.ModelURI == "":
				wantTotal = 0
			}
			for _, limit := range []int{0, 1, 7} {
				page, next := want, int64(0)
				if limit > 0 && len(want) > limit {
					page, next = want[:limit], want[limit-1].Seq
				}
				got := rt.QuerySummaries(f, after, limit)
				if g, w := ids(got.Summaries), ids(page); !slices.Equal(g, w) {
					t.Fatalf("filter %d %+v after %d limit %d: items %v, want %v", fi, f, after, limit, g, w)
				}
				if got.Total != wantTotal || got.NextAfter != next {
					t.Fatalf("filter %d %+v after %d limit %d: total %d next %d, want %d and %d",
						fi, f, after, limit, got.Total, got.NextAfter, wantTotal, next)
				}
			}
			var streamed []Summary
			rt.ForEachSummary(f, after, func(s Summary) bool {
				streamed = append(streamed, s)
				return true
			})
			if g, w := ids(streamed), ids(want); !slices.Equal(g, w) {
				t.Fatalf("filter %d %+v after %d streamed %v, want %v", fi, f, after, g, w)
			}
		}
		// The snapshot listings share the index path and predicate.
		var by func(string) []Snapshot
		uriOnly := Filter{Resource: f.Resource, ModelURI: f.ModelURI}
		switch {
		case f.Resource != "" && f.ModelURI == "":
			by = rt.ByResource
		case f.ModelURI != "" && f.Resource == "":
			by = rt.ByModelURI
		default:
			continue
		}
		var want, got []string
		for i := range sums {
			if summaryMatches(uriOnly, &sums[i], time.Time{}) {
				want = append(want, sums[i].ID)
			}
		}
		for _, sn := range by(f.Resource + f.ModelURI) {
			got = append(got, sn.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("filter %d %+v by-URI snapshots %v, want %v", fi, f, got, want)
		}
	}
	return firsts
}

// emitSnapshots collects rt's snapshot records in emit order.
func emitSnapshots(t testing.TB, rt *Runtime) []capturedRec {
	t.Helper()
	var recs []capturedRec
	if err := rt.EmitSnapshots(func(id string, data []byte) error {
		recs = append(recs, capturedRec{id: id, data: data})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// replaySnapshotRecs rebuilds a runtime from snapshot records in the
// given order, as a restart from a folded journal does.
func replaySnapshotRecs(t testing.TB, cfg Config, recs []capturedRec) *Runtime {
	t.Helper()
	rt := popRuntime(t, cfg)
	for _, r := range recs {
		if err := rt.ApplyJournal(r.id, r.data); err != nil {
			t.Fatal(err)
		}
	}
	rt.FinishRecovery()
	return rt
}

// shuffled returns recs in a seeded random order — the order snapshot
// files had when EmitSnapshots walked the shard maps.
func shuffled(recs []capturedRec, seed uint64) []capturedRec {
	out := slices.Clone(recs)
	rand.New(rand.NewPCG(seed, 0)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestQuerySummariesMatchesBruteForce checks every filter route —
// resource index, model index, state and lateness predicates, and
// their combinations — against a brute-force filter of the full
// summary listing at every cursor: items in creation order, Total and
// NextAfter. The population includes old instances switched into a
// newer model's index entry (an add below the entry's tail), and the
// same checks run again on a runtime replayed from a shuffled snapshot.
func TestQuerySummariesMatchesBruteForce(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	cfg := Config{Clock: clock}
	rt := popRuntime(t, cfg)
	modelA := popModel()
	modelB := core.NewModel("urn:pop:other", "Other").
		Phase("only", "Only").Done().
		Initial("only").
		MustBuild()
	newer := popModel()
	newer.URI = "urn:pop:newer"
	var ids []string
	for i := 0; i < 90; i++ {
		m := modelA
		switch {
		case i >= 80:
			m = newer
		case i%3 == 0:
			m = modelB
		}
		snap, err := rt.Instantiate(m, popRef(i), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		if m != modelB {
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
	// Old instances switched into the newer model's entry, in
	// descending seq order, and one into modelB's.
	for _, i := range []int{41, 13, 5, 1} {
		if _, err := rt.SwitchModel(ids[i], "owner", newer, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.SwitchModel(ids[55], "owner", modelB, "only"); err != nil {
		t.Fatal(err)
	}
	// Push past the 24h deadline so the work-phase dwellers are late,
	// then start a few more into the work phase, not yet due.
	clock.Advance(25 * time.Hour)
	now := clock.Now()
	for i := 90; i < 95; i++ {
		snap, err := rt.Instantiate(modelA, popRef(i), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Advance(snap.ID, "work", "owner", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	filters := []Filter{
		{},
		{Resource: "urn:pop:res-2"},
		{Resource: "urn:pop:res-2", State: StateCompleted},
		{Resource: "urn:pop:no-such"},
		{ModelURI: "urn:pop:model"},
		{ModelURI: "urn:pop:newer"},
		{ModelURI: "urn:pop:newer", State: StateActive},
		{ModelURI: "urn:pop:other", State: StateActive},
		{State: StateCompleted},
		{LateOnly: true, Now: now},
		{Resource: "urn:pop:res-1", LateOnly: true, Now: now},
		{ModelURI: "urn:pop:model", State: StateActive, LateOnly: true, Now: now},
		{ModelURI: "urn:pop:newer", LateOnly: true, Now: now},
	}
	want := assertQueriesMatchBruteForce(t, rt, filters)

	replayed := replaySnapshotRecs(t, cfg, shuffled(emitSnapshots(t, rt), 7))
	assertIndexMatchesCollectAll(t, replayed)
	if got := assertQueriesMatchBruteForce(t, replayed, filters); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed from a shuffled snapshot: %v, want %v", got, want)
	}
}

// TestQuerySummariesModelSwitchConsistency pins the model-index
// re-check and order: an instance switched to another model leaves the
// old URI's entry and lands in the new one's in creation order, even
// when it is older than every instance already there, switched back it
// returns to its place, and a restart from a shuffled snapshot serves
// the same pages.
func TestQuerySummariesModelSwitchConsistency(t *testing.T) {
	cfg := Config{}
	rt := popRuntime(t, cfg)
	model := popModel()
	snap, err := rt.Instantiate(model, popRef(1), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	other := core.NewModel("urn:pop:other", "Other").
		Phase("only", "Only").Done().
		Initial("only").
		MustBuild()
	for i := 0; i < 12; i++ {
		m := other
		if i%4 == 0 {
			m = model
		}
		if _, err := rt.Instantiate(m, popRef(i), "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	filters := []Filter{
		{ModelURI: "urn:pop:model"},
		{ModelURI: "urn:pop:other"},
		{ModelURI: "urn:pop:other", State: StateActive},
	}
	if _, err := rt.SwitchModel(snap.ID, "owner", other, ""); err != nil {
		t.Fatal(err)
	}
	for _, s := range rt.QuerySummaries(Filter{ModelURI: "urn:pop:model"}, 0, 0).Summaries {
		if s.ID == snap.ID {
			t.Fatalf("switched instance still served under old model URI")
		}
	}
	p := rt.QuerySummaries(Filter{ModelURI: "urn:pop:other"}, 0, 1)
	if len(p.Summaries) != 1 || p.Summaries[0].ID != snap.ID {
		t.Fatalf("oldest switched instance does not lead the new model's page: %+v", p)
	}
	assertQueriesMatchBruteForce(t, rt, filters)

	if _, err := rt.SwitchModel(snap.ID, "owner", model, ""); err != nil {
		t.Fatal(err)
	}
	want := assertQueriesMatchBruteForce(t, rt, filters)
	replayed := replaySnapshotRecs(t, cfg, shuffled(emitSnapshots(t, rt), 3))
	if got := assertQueriesMatchBruteForce(t, replayed, filters); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed from a shuffled snapshot: %v, want %v", got, want)
	}
}

// assertURIIndexConsistent checks both URI indexes directly: every
// instance sits exactly once in the entry of its current resource and
// model URI, and nowhere else.
func assertURIIndexConsistent(t *testing.T, rt *Runtime) {
	t.Helper()
	for name, ix := range map[string]*uriIndex{"resource": rt.byRes, "model": rt.byModel} {
		seen := make(map[*instance]bool)
		for _, sh := range ix.shards {
			sh.mu.RLock()
			for uri, e := range sh.m {
				for _, in := range e.list {
					in.mu.Lock()
					got := in.modelURI
					if name == "resource" {
						got = in.res.URI
					}
					in.mu.Unlock()
					if got != uri || seen[in] {
						t.Errorf("%s index: %s under %q (now %q, seen before %v)", name, in.id, uri, got, seen[in])
					}
					seen[in] = true
				}
			}
			sh.mu.RUnlock()
		}
		if len(seen) != rt.Count() {
			t.Errorf("%s index holds %d instances, population %d", name, len(seen), rt.Count())
		}
	}
}

// TestQuerySummariesConcurrentSwitch races Instantiates, SwitchModels
// between two models and filtered page walks (run with -race). Every
// page must be in creation order past its cursor and hold only
// matches; once the writers stop, the indexes and every query must
// agree with the brute-force oracle.
func TestQuerySummariesConcurrentSwitch(t *testing.T) {
	const (
		preSeeded   = 20
		creators    = 2
		perCreator  = 120
		switchers   = 2
		perSwitcher = 150
		readers     = 4
	)
	rt := popRuntime(t, Config{})
	models := []*core.Model{popModel(), popModel()}
	models[1].URI = "urn:pop:model-b"

	var (
		writers  sync.WaitGroup
		readerWG sync.WaitGroup
		stop     atomic.Bool
		switched atomic.Int64
		idsMu    sync.Mutex
		ids      []string
	)
	// Seeded up front so the switchers always have targets.
	for i := 0; i < preSeeded; i++ {
		snap, err := rt.Instantiate(models[i%2], popRef(i), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	for c := 0; c < creators; c++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perCreator; i++ {
				snap, err := rt.Instantiate(models[i%2], popRef(i), "owner", nil)
				if err != nil {
					t.Errorf("instantiate: %v", err)
					return
				}
				if i%5 == 0 {
					_, _ = rt.Advance(snap.ID, "work", "owner", AdvanceOptions{})
				}
				idsMu.Lock()
				ids = append(ids, snap.ID)
				idsMu.Unlock()
			}
		}()
	}
	for s := 0; s < switchers; s++ {
		writers.Add(1)
		go func(s int) {
			defer writers.Done()
			for i := 0; i < perSwitcher; i++ {
				idsMu.Lock()
				id := ids[(i*31+s*17)%len(ids)]
				idsMu.Unlock()
				if _, err := rt.SwitchModel(id, "owner", models[(i+s)%2], ""); err == nil {
					switched.Add(1)
				}
			}
		}(s)
	}
	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(rd int) {
			defer readerWG.Done()
			for i := 0; !stop.Load(); i++ {
				// Both readers walk the same model at about the same
				// time, so they meet on entries a switch just dirtied.
				f := Filter{ModelURI: models[i%2].URI}
				if (i+rd)%3 == 0 {
					f.State = StateActive
				}
				var after int64
				for {
					page := rt.QuerySummaries(f, after, 7)
					last := after
					for _, s := range page.Summaries {
						if s.Seq <= last || s.ModelURI != f.ModelURI || (f.State != "" && s.State != f.State) {
							t.Errorf("%+v after %d: item %s seq %d model %s state %s", f, after, s.ID, s.Seq, s.ModelURI, s.State)
							return
						}
						last = s.Seq
					}
					if page.Total < len(page.Summaries) || (page.NextAfter != 0 && page.NextAfter != last) {
						t.Errorf("%+v after %d: total %d next %d for %d items ending at %d",
							f, after, page.Total, page.NextAfter, len(page.Summaries), last)
						return
					}
					if page.NextAfter == 0 {
						break
					}
					after = page.NextAfter
				}
			}
		}(rd)
	}
	writers.Wait()
	stop.Store(true)
	readerWG.Wait()
	if switched.Load() == 0 {
		t.Fatal("no model switch succeeded")
	}

	assertURIIndexConsistent(t, rt)
	assertQueriesMatchBruteForce(t, rt, []Filter{
		{ModelURI: models[0].URI},
		{ModelURI: models[1].URI, State: StateActive},
		{Resource: "urn:pop:res-3"},
	})
}

// TestPopulationIndexSnapshotEmitOrder checks that EmitSnapshots walks
// the population in creation order, so a restart from its output
// replays as appends — no out-of-order population-index insert — and
// that a snapshot in the old random order still replays to the same
// pages.
func TestPopulationIndexSnapshotEmitOrder(t *testing.T) {
	cfg := Config{}
	rt := popRuntime(t, cfg)
	model, other := popModel(), popModel()
	other.URI = "urn:pop:other"
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := rt.Instantiate(model, popRef(c+i), "owner", nil); err != nil {
					t.Errorf("instantiate: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, s := range rt.QuerySummaries(Filter{}, 0, 0).Summaries[:60] {
		if s.Seq%3 == 0 {
			if _, err := rt.SwitchModel(s.ID, "owner", other, ""); err != nil {
				t.Fatal(err)
			}
		}
	}

	recs := emitSnapshots(t, rt)
	if len(recs) != rt.Count() {
		t.Fatalf("emitted %d snapshots for %d instances", len(recs), rt.Count())
	}
	for i := 1; i < len(recs); i++ {
		a, _ := rt.Summary(recs[i-1].id)
		b, _ := rt.Summary(recs[i].id)
		if a.Seq >= b.Seq {
			t.Fatalf("snapshot %d (%s, seq %d) emitted after seq %d", i, b.ID, b.Seq, a.Seq)
		}
	}
	filters := []Filter{{}, {ModelURI: "urn:pop:model"}, {ModelURI: "urn:pop:other", State: StateActive}}
	want := assertQueriesMatchBruteForce(t, rt, filters)

	inOrder := replaySnapshotRecs(t, cfg, recs)
	if n := inOrder.RuntimeStats().PopulationIndex.OutOfOrderInserts; n != 0 {
		t.Fatalf("replay in emit order made %d out-of-order inserts", n)
	}
	random := replaySnapshotRecs(t, cfg, shuffled(recs, 11))
	if n := random.RuntimeStats().PopulationIndex.OutOfOrderInserts; n == 0 {
		t.Fatalf("shuffled replay made no out-of-order insert; the case exercised nothing")
	}
	for name, replayed := range map[string]*Runtime{"emit order": inOrder, "random order": random} {
		assertIndexMatchesCollectAll(t, replayed)
		if got := assertQueriesMatchBruteForce(t, replayed, filters); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed in %s: %v, want %v", name, got, want)
		}
	}
}
