package runtime

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
)

// stressModel: draft (no actions) <-> work (one action) -> done(final).
func stressModel() *core.Model {
	return core.NewModel("urn:stress:model", "Stress").
		Phase("draft", "Draft").
		Phase("work", "Work").Action("urn:stress:a1", "Do Work").Done().
		FinalPhase("done", "Done").
		Initial("draft").
		Transition("draft", "work").Transition("work", "draft").
		Transition("work", "done").
		MustBuild()
}

// TestStressConcurrentMutations drives every mutating verb and every
// reader across many instances from many goroutines at once — the
// -race exercise for the sharded runtime's locking model. Afterwards
// it asserts that each instance's event history is gapless and
// strictly ordered, that every dispatched action terminated, and that
// the secondary indexes agree with the population.
func TestStressConcurrentMutations(t *testing.T) {
	const (
		workers      = 8
		perWorker    = 4
		rounds       = 25
		sharedURIs   = 4 // instances spread across this many resource URIs
		resourceType = "stress"
	)

	reg := actionlib.NewRegistry()
	if err := reg.RegisterType(actionlib.ActionType{URI: "urn:stress:a1", Name: "Do Work"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterImplementation(actionlib.Implementation{
		TypeURI: "urn:stress:a1", ResourceType: resourceType,
		Endpoint: "local://stress", Protocol: actionlib.ProtocolLocal,
	}); err != nil {
		t.Fatal(err)
	}

	// The invoker queues invocation ids; reporter goroutines deliver a
	// non-terminal then a terminal status for each, concurrently with
	// the drivers.
	invocations := make(chan string, 4096)
	rt, err := New(Config{
		Registry: reg,
		Invoker: InvokerFunc(func(_ context.Context, inv actionlib.Invocation) error {
			invocations <- inv.ID
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	model := stressModel()
	ids := make([][]string, workers)
	for w := 0; w < workers; w++ {
		ids[w] = make([]string, perWorker)
		for i := 0; i < perWorker; i++ {
			ref := resource.Ref{
				URI:  fmt.Sprintf("urn:stress:res-%d", (w*perWorker+i)%sharedURIs),
				Type: resourceType,
			}
			snap, err := rt.Instantiate(model, ref, "owner", nil)
			if err != nil {
				t.Fatal(err)
			}
			ids[w][i] = snap.ID
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*2+2)

	// Reporter goroutines: race callbacks against everything else.
	var reporters sync.WaitGroup
	for i := 0; i < 2; i++ {
		reporters.Add(1)
		go func() {
			defer reporters.Done()
			for invID := range invocations {
				if err := rt.Report(actionlib.StatusUpdate{InvocationID: invID, Message: "running"}); err != nil {
					errs <- err
					return
				}
				if err := rt.Report(actionlib.StatusUpdate{InvocationID: invID, Message: actionlib.StatusCompleted}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Driver goroutines: each owns a disjoint instance set and runs
	// moves, annotations, bindings and a propose/accept/reject cycle.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v2 := stressModel()
			v2.Phases = append(v2.Phases, &core.Phase{ID: "extra", Name: "Extra"})
			for r := 0; r < rounds; r++ {
				for _, id := range ids[w] {
					if _, err := rt.Advance(id, "work", "owner", AdvanceOptions{}); err != nil {
						errs <- err
						return
					}
					if err := rt.Annotate(id, "owner", "round note"); err != nil {
						errs <- err
						return
					}
					if _, err := rt.Advance(id, "draft", "owner", AdvanceOptions{Annotation: "back"}); err != nil {
						errs <- err
						return
					}
					if err := rt.ProposeChange(id, "designer", v2, "add extra"); err != nil {
						errs <- err
						return
					}
					if r%2 == 0 {
						if _, err := rt.AcceptChange(id, "owner", ""); err != nil {
							errs <- err
							return
						}
					} else if err := rt.RejectChange(id, "owner", "keep"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}

	// Reader goroutines: hammer every query path until drivers finish.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func(i int) {
			defer readers.Done()
			for j := 0; ; j++ {
				select {
				case <-stopReaders:
					return
				default:
				}
				snapshots(rt, Filter{})
				summaries(rt)
				rt.ByResource(fmt.Sprintf("urn:stress:res-%d", j%sharedURIs))
				snapshots(rt, Filter{ModelURI: "urn:stress:model"})
				rt.RuntimeStats()
				id := ids[j%workers][j%perWorker]
				if _, ok := rt.Instance(id); !ok {
					errs <- fmt.Errorf("instance %s vanished", id)
					return
				}
				rt.InFlight(id)
			}
		}(i)
	}

	wg.Wait()
	close(stopReaders)
	readers.Wait()
	rt.WaitDispatch()
	close(invocations)
	reporters.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every event history must be gapless and strictly ordered, and
	// every incrementally maintained counter must equal a recount from
	// the full history — the acceptance check that concurrent
	// Advance/Report/Annotate across shards never desynchronizes the
	// copy-free read path from the audit record.
	snaps := snapshots(rt, Filter{})
	if len(snaps) != workers*perWorker {
		t.Fatalf("instances = %d, want %d", len(snaps), workers*perWorker)
	}
	for _, s := range snaps {
		for i, ev := range s.Events {
			if ev.Seq != i+1 {
				t.Fatalf("%s: event %d has seq %d — gap or reorder", s.ID, i, ev.Seq)
			}
		}
		// rounds moves into "work" each dispatch one action; every one
		// must have terminated once reporters drained.
		if len(s.Executions) != rounds {
			t.Fatalf("%s: executions = %d, want %d", s.ID, len(s.Executions), rounds)
		}
		for _, ex := range s.Executions {
			if !ex.Terminal {
				t.Fatalf("%s: execution %s not terminal after drain", s.ID, ex.InvocationID)
			}
		}
		sum, ok := rt.Summary(s.ID)
		if !ok {
			t.Fatalf("%s: summary missing", s.ID)
		}
		var dev, failed, pending int
		for _, ev := range s.Events {
			if ev.Kind == EventPhaseEntered && ev.Deviation {
				dev++
			}
		}
		for _, ex := range s.Executions {
			switch {
			case ex.Terminal && ex.LastStatus == actionlib.StatusFailed:
				failed++
			case !ex.Terminal:
				pending++
			}
		}
		if sum.Deviations != dev || sum.FailedSteps != failed || sum.PendingInvocations != pending {
			t.Fatalf("%s: counters (dev=%d fail=%d pend=%d) != recount (dev=%d fail=%d pend=%d)",
				s.ID, sum.Deviations, sum.FailedSteps, sum.PendingInvocations, dev, failed, pending)
		}
		if sum.Events != len(s.Events) {
			t.Fatalf("%s: summary events %d != history length %d", s.ID, sum.Events, len(s.Events))
		}
	}

	// Indexes must agree with the population.
	perURI := workers * perWorker / sharedURIs
	for u := 0; u < sharedURIs; u++ {
		uri := fmt.Sprintf("urn:stress:res-%d", u)
		got := rt.ByResource(uri)
		if len(got) != perURI {
			t.Fatalf("ByResource(%s) = %d, want %d", uri, len(got), perURI)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].CreatedAt.After(got[i].CreatedAt) {
				t.Fatalf("ByResource(%s) not in creation order", uri)
			}
		}
	}
	if got := snapshots(rt, Filter{ModelURI: "urn:stress:model"}); len(got) != workers*perWorker {
		t.Fatalf("instances of model = %d, want %d", len(got), workers*perWorker)
	}
	st := rt.RuntimeStats()
	if st.Instances != workers*perWorker {
		t.Fatalf("stats instances = %d, want %d", st.Instances, workers*perWorker)
	}
	total := 0
	for _, n := range st.PerShard {
		total += n
	}
	if total != st.Instances {
		t.Fatalf("per-shard sum %d != instances %d", total, st.Instances)
	}
	if st.Invocations != workers*perWorker*rounds {
		t.Fatalf("invocation index = %d, want %d", st.Invocations, workers*perWorker*rounds)
	}
}

// TestSummariesMatchInstances pins the summary projection to the full
// snapshot path.
func TestSummariesMatchInstances(t *testing.T) {
	reg := actionlib.NewRegistry()
	rt, err := New(Config{Registry: reg, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	model := stressModel()
	for i := 0; i < 10; i++ {
		ref := resource.Ref{URI: fmt.Sprintf("urn:s:%d", i), Type: "t"}
		snap, err := rt.Instantiate(model, ref, fmt.Sprintf("owner-%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := rt.Advance(snap.ID, "work", "owner", AdvanceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	snaps := snapshots(rt, Filter{})
	sums := summaries(rt)
	if len(snaps) != len(sums) {
		t.Fatalf("len mismatch: %d vs %d", len(snaps), len(sums))
	}
	for i := range snaps {
		sn, sm := snaps[i], sums[i]
		if sn.ID != sm.ID || sn.Owner != sm.Owner || sn.State != sm.State ||
			sn.Current != sm.Current || sn.ModelURI != sm.ModelURI ||
			sn.Resource.URI != sm.Resource.URI || len(sn.Events) != sm.Events ||
			len(sn.Executions) != sm.Executions {
			t.Fatalf("summary %d diverges from snapshot:\n%+v\nvs\n%+v", i, sm, sn)
		}
		if fmt.Sprint(sn.NextSuggested()) != fmt.Sprint(sm.NextSuggested) {
			t.Fatalf("summary %d suggested %v != snapshot %v", i, sm.NextSuggested, sn.NextSuggested())
		}
	}
}
