// Benchmarks timing every table and figure of the paper — one
// Benchmark per experiment (E1..E8), plus the hot micro paths. Run:
//
//	go test -bench=. -benchmem
//
// The claims these paths demonstrate are asserted by tests: see the
// "Paper claims" table in README.md.
package gelee

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	rtpkg "github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
	"github.com/liquidpub/gelee/internal/wfengine"
	"github.com/liquidpub/gelee/internal/xmlcodec"
)

// benchSystem builds an embedded system with the quality plan defined
// and the Fig. 1 resources created.
func benchSystem(b *testing.B) *System {
	b.Helper()
	sys, err := New(Options{
		Clock:           vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC)),
		EmbeddedPlugins: true,
		SyncActions:     true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	if err := sys.DefineModel("", scenario.QualityPlan()); err != nil {
		b.Fatal(err)
	}
	return sys
}

func benchBindings() map[string]map[string]string {
	return map[string]map[string]string{
		"http://www.liquidpub.org/a/notify": {"reviewers": "epfl-reviewer,inria-reviewer"},
		"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
	}
}

// BenchmarkFig1_LifecycleExecution (E1): one complete Fig. 1 deliverable
// lifecycle — instantiate on a wiki page, walk the happy path, all nine
// figure actions executing against the simulated managing application.
// The system is rebuilt every 512 lifecycles so the measured cost is one
// lifecycle, not the growing live heap of thousands of retained ones.
func BenchmarkFig1_LifecycleExecution(b *testing.B) {
	var sys *System
	ref := Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	reset := func() {
		if sys != nil {
			sys.Close()
		}
		sys = benchSystem(b)
		sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 511 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", benchBindings())
		if err != nil {
			b.Fatal(err)
		}
		for _, phase := range scenario.HappyPath {
			if _, err := sys.Advance(snap.ID, phase, "owner", AdvanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTableI_ProcessXML (E2): marshal + parse the Table I lifecycle
// document at the paper's size and at 5×/20× synthetic sizes.
func BenchmarkTableI_ProcessXML(b *testing.B) {
	sizes := []struct {
		name   string
		phases int
	}{{"fig1", 0}, {"35phases", 35}, {"140phases", 140}}
	for _, size := range sizes {
		b.Run(size.name, func(b *testing.B) {
			m := scenario.QualityPlan()
			for i := 0; i < size.phases; i++ {
				id := fmt.Sprintf("extra%d", i)
				m.Phases = append(m.Phases, &core.Phase{ID: id, Name: "Extra " + id})
				m.Transitions = append(m.Transitions, core.Transition{From: "elaboration", To: id})
			}
			doc, err := xmlcodec.MarshalModel(m)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := xmlcodec.MarshalModel(m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := xmlcodec.UnmarshalModel(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableII_ActionTypeXML (E3): marshal + parse the Table II
// action type document.
func BenchmarkTableII_ActionTypeXML(b *testing.B) {
	at := ActionType{
		URI: "http://www.liquidpub.org/a/chr", Name: "Change Access Rights",
		Params: []Param{
			{ID: "mode", BindingTime: core.BindAny, Required: true},
			{ID: "note", BindingTime: core.BindCall},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := xmlcodec.MarshalActionType(at)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := xmlcodec.UnmarshalActionType(out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_EndToEndProgression (E4): the full hosted round trip —
// instantiate and advance twice over the REST API, actions and
// callbacks included.
func BenchmarkFig2_EndToEndProgression(b *testing.B) {
	sys := benchSystem(b)
	sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	srv := httptest.NewServer(sys.HTTPHandler())
	b.Cleanup(srv.Close)

	post := func(path string, body any) {
		data, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			b.Fatalf("%s: %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var inst struct {
			ID string `json:"id"`
		}
		data, _ := json.Marshal(map[string]any{
			"model_uri": scenario.QualityPlanURI,
			"resource":  map[string]string{"uri": "http://wiki.liquidpub.org/pages/D1.1", "type": "mediawiki"},
			"owner":     "owner",
			"bindings":  benchBindings(),
		})
		resp, err := http.Post(srv.URL+"/api/v1/instances", "application/json", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&inst)
		resp.Body.Close()
		post("/api/v1/instances/"+inst.ID+"/advance", map[string]any{"to": "elaboration"})
		post("/api/v1/instances/"+inst.ID+"/advance", map[string]any{"to": "internalreview"})
	}
}

// BenchmarkFig3_ActionBrowsing (E5): design-time (all) vs run-time
// (type-filtered) browse over a 200-type library across 5 resource
// types.
func BenchmarkFig3_ActionBrowsing(b *testing.B) {
	sys := benchSystem(b)
	resourceTypes := []string{"gdoc", "mediawiki", "svn", "zoho", "flickr"}
	for i := 0; i < 200; i++ {
		at := ActionType{URI: fmt.Sprintf("urn:bench:act%d", i), Name: fmt.Sprintf("Action %d", i)}
		impl := Implementation{
			ResourceType: resourceTypes[i%len(resourceTypes)],
			Endpoint:     "http://x/act", Protocol: "rest",
		}
		if err := sys.RegisterAction("", at, impl); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("design-time-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := sys.ActionTypes(""); len(got) < 200 {
				b.Fatalf("browse = %d", len(got))
			}
		}
	})
	b.Run("runtime-filtered", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := sys.ActionTypes("gdoc"); len(got) < 40 {
				b.Fatalf("browse = %d", len(got))
			}
		}
	})
}

// BenchmarkFig4_WidgetRender (E6): the integrated execution widget —
// lifecycle strip + transparent resource rendering, HTML and JSON.
func BenchmarkFig4_WidgetRender(b *testing.B) {
	sys := benchSystem(b)
	sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	snap, err := sys.Instantiate(scenario.QualityPlanURI,
		Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}, "owner", benchBindings())
	if err != nil {
		b.Fatal(err)
	}
	sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
	b.Run("html", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Widgets().HTML(snap.ID, "owner"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Widgets().View(snap.ID, "owner"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("feed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Widgets().Feed(snap.ID, "owner"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wfQualityPlan is the Fig. 1 lifecycle as a rigid wfengine definition.
func wfQualityPlan() wfengine.Definition {
	return wfengine.Definition{
		ID:      "eu-deliverable",
		Initial: "elaboration",
		Final:   map[string]bool{"accepted": true, "rejected": true},
		Next: map[string][]string{
			"elaboration":    {"internalreview"},
			"internalreview": {"elaboration", "finalassembly"},
			"finalassembly":  {"eureview"},
			"eureview":       {"publication", "finalassembly", "rejected"},
			"publication":    {"accepted"},
		},
	}
}

// BenchmarkE7_LightCouplingAblation (E7): the cost of the two management
// scenarios the paper motivates, in Gelee vs the prescriptive baseline.
//
// Deviation: in Gelee one Advance call; in the baseline the deviation is
// impossible without redeploying an edited definition and migrating all
// instances.
//
// Model change over N instances: Gelee propagates proposals (owners
// migrate by state only); the baseline replays every instance trace.
func BenchmarkE7_LightCouplingAblation(b *testing.B) {
	for _, n := range []int{35, 350} {
		b.Run(fmt.Sprintf("gelee-deviation-%d", n), func(b *testing.B) {
			sys := benchSystem(b)
			sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
			ref := Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
			ids := make([]string, n)
			for i := 0; i < n; i++ {
				snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", benchBindings())
				if err != nil {
					b.Fatal(err)
				}
				sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
				ids[i] = snap.ID
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The deviation: skip straight to EU review. One call,
				// other instances untouched.
				id := ids[i%n]
				if _, err := sys.Advance(id, "eureview", "owner", AdvanceOptions{Annotation: "deadline"}); err != nil {
					b.Fatal(err)
				}
				sys.Advance(id, "elaboration", "owner", AdvanceOptions{Annotation: "reset"})
			}
		})
		b.Run(fmt.Sprintf("baseline-deviation-%d", n), func(b *testing.B) {
			// The baseline cannot deviate: the definition must be edited
			// to add the edge and every instance migrated.
			eng := wfengine.New()
			if _, err := eng.Deploy(wfQualityPlan()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := eng.Start("eu-deliverable"); err != nil {
					b.Fatal(err)
				}
			}
			withEdge := wfQualityPlan()
			withEdge.Next["elaboration"] = append(withEdge.Next["elaboration"], "eureview")
			withoutEdge := wfQualityPlan()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := withEdge
				if i%2 == 1 {
					d = withoutEdge
				}
				if _, err := eng.Redeploy(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("gelee-modelchange-%d", n), func(b *testing.B) {
			sys := benchSystem(b)
			sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
			ref := Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
			ids := make([]string, n)
			for i := 0; i < n; i++ {
				snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", benchBindings())
				if err != nil {
					b.Fatal(err)
				}
				sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})
				ids[i] = snap.ID
			}
			v2 := scenario.QualityPlan()
			v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival"})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Propagate("", v2, "bench"); err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					if _, err := sys.AcceptChange(id, "owner", ""); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("baseline-modelchange-%d", n), func(b *testing.B) {
			eng := wfengine.New()
			if _, err := eng.Deploy(wfQualityPlan()); err != nil {
				b.Fatal(err)
			}
			// Instances with 6-step traces: replay cost scales with
			// history length, unlike Gelee's state-only migration.
			for i := 0; i < n; i++ {
				in, _ := eng.Start("eu-deliverable")
				for _, step := range []string{"internalreview", "elaboration", "internalreview", "finalassembly", "eureview"} {
					if err := eng.Complete(in.ID, step); err != nil {
						b.Fatal(err)
					}
				}
			}
			d := wfQualityPlan()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Redeploy(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8_MonitoringCockpit (E8): cockpit queries over the LiquidPub
// project (35 deliverables) and 10×/100× scale.
func BenchmarkE8_MonitoringCockpit(b *testing.B) {
	for _, n := range []int{35, 350, 3500} {
		b.Run(fmt.Sprintf("summary-%d", n), func(b *testing.B) {
			sys := benchSystem(b)
			sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
			ref := Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
			for i := 0; i < n; i++ {
				snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", benchBindings())
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j <= i%len(scenario.HappyPath); j++ {
					sys.Advance(snap.ID, scenario.HappyPath[j], "owner", AdvanceOptions{})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := sys.Monitor().Summarize()
				if sum.Total != n {
					b.Fatalf("total = %d", sum.Total)
				}
				_ = sys.Monitor().Late()
			}
		})
	}
}

// BenchmarkCockpitRoutes: the cockpit's hot reads served in process
// through the HTTP handler — response encoding included — at 10k
// instances over 2,048 models, instances drawn Zipf(1.1) over the
// models as in the perfbench cockpit workload: a population page, a
// filtered page of active instances on one model, the monitor summary
// with its 2,048-key by_model breakdown, and a fetch of one model
// (cockpit's most frequent op), its URI drawn by the same Zipf.
func BenchmarkCockpitRoutes(b *testing.B) {
	const population, models, limit = 10000, 2048, 50
	sys := benchSystem(b)
	sys.Sims.Wiki.CreatePage("C1", "owner", "text")
	ref := Ref{URI: "http://wiki.liquidpub.org/pages/C1", Type: "mediawiki"}
	uris := make([]string, models)
	for i := range uris {
		m := scenario.QualityPlan()
		m.URI = fmt.Sprintf("urn:bench:cockpit:model-%04d", i)
		m.Name = fmt.Sprintf("Cockpit model %04d", i)
		if err := sys.DefineModel("", m); err != nil {
			b.Fatal(err)
		}
		uris[i] = m.URI
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, models-1)
	for i := range population {
		snap, err := sys.Instantiate(uris[zipf.Uint64()], ref, "owner", benchBindings())
		if err != nil {
			b.Fatal(err)
		}
		if i%3 > 0 {
			sys.Advance(snap.ID, scenario.HappyPath[0], "owner", AdvanceOptions{})
		}
	}
	h := sys.HTTPHandler()
	routes := []struct {
		name string
		path func() string
	}{
		{"page", func() string {
			return fmt.Sprintf("/api/v1/instances?after=%d&limit=%d", rng.Intn(population), limit)
		}},
		{"filtered", func() string {
			return fmt.Sprintf("/api/v1/instances?model=%s&state=active&limit=%d", uris[zipf.Uint64()], limit)
		}},
		{"summary", func() string { return "/api/v1/monitor/summary" }},
		{"model", func() string { return "/api/v1/models/" + url.PathEscape(uris[zipf.Uint64()]) }},
	}
	for _, rt := range routes {
		b.Run(rt.name, func(b *testing.B) {
			paths := make([]string, 256)
			for i := range paths {
				paths[i] = rt.path()
			}
			w := &discardResponse{header: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(w.header)
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
				if w.status != http.StatusOK {
					b.Fatalf("%s: status %d", paths[i%len(paths)], w.status)
				}
			}
		})
	}
}

// discardResponse is a ResponseWriter that keeps only the status, so a
// route benchmark measures the handler and not a recorder's buffer.
type discardResponse struct {
	header http.Header
	status int
}

func (w *discardResponse) Header() http.Header         { return w.header }
func (w *discardResponse) WriteHeader(status int)      { w.status = status }
func (w *discardResponse) Write(b []byte) (int, error) { return len(b), nil }

// ---- micro-benchmarks on the hot paths ---------------------------------------

func BenchmarkRuntimeAdvance(b *testing.B) {
	// Advance returns a full history snapshot, so its cost grows with the
	// instance's event count; re-instantiate every 256 moves to measure
	// the steady short-history case.
	sys := benchSystem(b)
	sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	ref := Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	newInstance := func() string {
		snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", benchBindings())
		if err != nil {
			b.Fatal(err)
		}
		return snap.ID
	}
	id := newInstance()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			b.StopTimer()
			id = newInstance()
			b.StartTimer()
		}
		// elaboration has no actions: this isolates pure token movement.
		if _, err := sys.Advance(id, "elaboration", "owner", AdvanceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRuntime builds a bare runtime — no facade, no HTTP, no journal,
// no observer — so the parallel benchmarks measure the runtime's own
// locking and nothing else. The wall clock is deliberate: the fake
// clock serializes every event timestamp on its own mutex, which would
// mask exactly the contention these benchmarks exist to expose.
func benchRuntime(b *testing.B) *rtpkg.Runtime {
	b.Helper()
	rt, err := rtpkg.New(rtpkg.Config{
		Registry:    actionlib.NewRegistry(),
		SyncActions: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// mutexWaitSeconds reads the cumulative time goroutines have spent
// blocked on sync.Mutex/RWMutex — the hardware-independent measure of
// lock contention (wall clock on an oversubscribed host measures the
// scheduler, not the locks).
func mutexWaitSeconds() float64 {
	sample := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		return sample[0].Value.Float64()
	}
	return 0
}

// BenchmarkParallelAdvance drives token moves on *disjoint* instances
// from GOMAXPROCS goroutines against the bare runtime (no HTTP, no
// journal): the measurement behind the runtime-sharding work. Every
// goroutine owns its own instances, so with striped instance locks the
// moves share no lock at all; under a single runtime-wide mutex every
// move queues. Besides ns/op it reports mutex-wait-ns/op — time spent
// blocked on locks per move — which exposes the contention even when
// -cpu exceeds the physical core count. Instances are re-created every
// 256 moves so the measured cost is a steady short-history Advance,
// not an ever-growing snapshot copy.
func BenchmarkParallelAdvance(b *testing.B) {
	rt := benchRuntime(b)
	model := scenario.QualityPlan()
	var next atomic.Int64
	newInstance := func() string {
		n := next.Add(1)
		ref := Ref{URI: fmt.Sprintf("urn:bench:res-%d", n), Type: "mediawiki"}
		snap, err := rt.Instantiate(model, ref, "owner", nil)
		if err != nil {
			b.Fatal(err)
		}
		return snap.ID
	}
	b.ReportAllocs()
	wait0 := mutexWaitSeconds()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := newInstance()
		i := 0
		for pb.Next() {
			if i%256 == 255 {
				id = newInstance()
			}
			i++
			// elaboration has no actions: pure token movement.
			if _, err := rt.Advance(id, "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric((mutexWaitSeconds()-wait0)*1e9/float64(b.N), "mutex-wait-ns/op")
}

// BenchmarkByResourceIndexed measures the runtime's by-resource query
// over a populated deployment: 2048 instances spread across 256
// resource URIs, 8 instances each. With the secondary index the query
// touches only the 8 matches; the pre-sharding runtime scanned and
// deep-copied nothing it returned but still walked all 2048.
func BenchmarkByResourceIndexed(b *testing.B) {
	rt := benchRuntime(b)
	model := scenario.QualityPlan()
	const uris, perURI = 256, 8
	for i := 0; i < uris*perURI; i++ {
		ref := Ref{URI: fmt.Sprintf("urn:bench:res-%d", i%uris), Type: "mediawiki"}
		if _, err := rt.Instantiate(model, ref, "owner", nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := rt.ByResource(fmt.Sprintf("urn:bench:res-%d", i%uris))
		if len(got) != perURI {
			b.Fatalf("ByResource = %d instances, want %d", len(got), perURI)
		}
	}
}

// BenchmarkInstanceListing compares the full-snapshot listing (deep
// copies of every event history) against the summary projection behind
// GET /api/v1/instances, over 1024 instances with real histories.
func BenchmarkInstanceListing(b *testing.B) {
	rt := benchRuntime(b)
	model := scenario.QualityPlan()
	for i := 0; i < 1024; i++ {
		ref := Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "mediawiki"}
		snap, err := rt.Instantiate(model, ref, "owner", nil)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j <= i%len(scenario.HappyPath); j++ {
			if _, err := rt.Advance(snap.ID, scenario.HappyPath[j], "owner", rtpkg.AdvanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("instances-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := rt.Instances(); len(got) != 1024 {
				b.Fatalf("instances = %d", len(got))
			}
		}
	})
	b.Run("summaries", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := rt.Summaries(); len(got) != 1024 {
				b.Fatalf("summaries = %d", len(got))
			}
		}
	})
}

func BenchmarkModelCloneAndFingerprint(b *testing.B) {
	m := scenario.QualityPlan()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		if c.Fingerprint() != m.Fingerprint() {
			b.Fatal("fingerprint mismatch")
		}
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	repo := store.MustRepo[map[string]string](st, "bench")
	if err := st.Load(); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := map[string]string{"phase": "elaboration", "actor": "owner"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := repo.Put(fmt.Sprintf("k%d", i%1000), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalDurableConcurrentPut measures concurrent durable
// writes: no Put returns before its entry is fsynced, and concurrent
// Puts share one flush + fsync.
func BenchmarkJournalDurableConcurrentPut(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	repo := store.MustRepo[map[string]string](st, "bench")
	if err := st.Load(); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	val := map[string]string{"phase": "elaboration", "actor": "owner"}
	var next atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := next.Add(1)
			if err := repo.Put(fmt.Sprintf("k%d", k%4096), val); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	stats := st.Stats()
	b.ReportMetric(float64(stats.Engine.Syncs), "fsyncs")
	if stats.Engine.Batches > 0 {
		b.ReportMetric(float64(stats.Engine.Appends)/float64(stats.Engine.Batches), "appends/batch")
	}
}

// BenchmarkConcurrentInstantiateAdvance drives the whole stack — facade,
// runtime, sharded repositories, execution log, journal engine — from
// many goroutines at once, persistent and durable.
func BenchmarkConcurrentInstantiateAdvance(b *testing.B) {
	sys, err := New(Options{DataDir: b.TempDir(), SyncJournal: true, EmbeddedPlugins: true, SyncActions: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sys.Close() })
	if err := sys.DefineModel("", scenario.QualityPlan()); err != nil {
		b.Fatal(err)
	}
	sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	ref := Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", benchBindings())
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
