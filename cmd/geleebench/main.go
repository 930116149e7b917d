// Command geleebench regenerates every table and figure reproduction of
// DESIGN.md §4 and prints paper-claim vs measured-behavior rows — the
// source of EXPERIMENTS.md. Unlike `go test -bench`, which measures
// time, geleebench verifies the *behavioral* claims (who wins, what is
// allowed, what survives change) and reports wall-clock costs for the
// ablations.
//
// Usage:
//
//	geleebench [-experiment all|fig1|table1|table2|fig2|fig3|fig4|ablation|liquidpub|runtime|monitor|persist|segments|fold|overload|integrity]
//	           [-runtime-shards N]
//
// The runtime experiment drives disjoint-instance token moves from a
// growing number of goroutines and compares indexed vs scan-based
// by-resource queries, then records the measured trajectory in
// BENCH_runtime.json next to the working directory. The monitor
// experiment measures the copy-free read path — summary-backed cockpit
// queries and summary-mode Advance vs their snapshot-backed baselines
// over a 2048-instance × 128-event population, the cockpit summary at
// growing populations and the filtered cockpit page — and records the
// trajectory in BENCH_monitor.json. The fold experiment grows an
// execution log tenfold and measures per-compaction cost with the
// fold-by-reference archives, verifying reads stay byte-identical;
// trajectory in BENCH_fold.json, next to the frozen numbers of the
// full-history rewrite it replaced.
// The overload experiment saturates admission control (shed cost and
// recovery), trips the read-only fallback with an injected journal
// fault (probe-driven recovery time), and wedges a REST action
// endpoint to measure circuit-breaker isolation: opens, fast-fail
// latency and the flat Advance latency of unaffected instances;
// results in BENCH_overload.json. The integrity experiment measures
// the durable-put cost of CRC-32C record framing and the background
// scrubber's verification throughput, proving a flipped bit is
// detected; results in BENCH_integrity.json, next to the frozen
// numbers of the unframed format framing replaced.
//
// End-to-end latency through the HTTP listener is measured by the
// repository benchmark in perfbench/, not here. BENCH_openloop.json is
// the frozen record of the open-loop harness it replaced.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	runtimego "runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/monitor"
	"github.com/liquidpub/gelee/internal/resilience"
	"github.com/liquidpub/gelee/internal/resource"
	rtpkg "github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
	"github.com/liquidpub/gelee/internal/wfengine"
	"github.com/liquidpub/gelee/internal/xmlcodec"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run")
	flag.IntVar(&runtimeShards, "runtime-shards", 0, "runtime instance-table lock-stripe count for the runtime experiment (0 = default)")
	flag.Parse()

	experiments := []struct {
		id   string
		name string
		run  func() error
	}{
		{"fig1", "Fig. 1 — EU deliverable lifecycle", runFig1},
		{"table1", "Table I — lifecycle XML", runTable1},
		{"table2", "Table II — action type XML", runTable2},
		{"fig2", "Fig. 2 — hosted architecture round trip", runFig2},
		{"fig3", "Fig. 3 — designer action browse", runFig3},
		{"fig4", "Fig. 4 — execution widget", runFig4},
		{"ablation", "E7 — light coupling vs prescriptive engine", runAblation},
		{"liquidpub", "E8 — LiquidPub monitoring at scale", runLiquidPub},
		{"runtime", "E10 — runtime sharding: disjoint-advance scaling, indexed queries", runRuntimeSharding},
		{"monitor", "E11 — copy-free read path: summary-backed cockpit vs snapshot baseline", runMonitorReadPath},
		{"persist", "E12 — durable runtime: write-through overhead + replay throughput", runPersist},
		{"segments", "E13 — segmented journal: bounded restart replay via snapshot folding", runSegments},
		{"fold", "E14 — fold-by-reference archives: flat fold cost as history grows", runFold},
		{"overload", "E15 — overload & failure engineering: shedding, read-only fallback, breaker isolation", runOverload},
		{"integrity", "E16 — journal integrity: CRC framing cost + scrub throughput", runIntegrity},
	}
	ran := 0
	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.run(); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func newSystem() (*gelee.System, error) {
	sys, err := gelee.New(gelee.Options{EmbeddedPlugins: true, SyncActions: true})
	if err != nil {
		return nil, err
	}
	if err := sys.DefineModel("", scenario.QualityPlan()); err != nil {
		return nil, err
	}
	return sys, nil
}

func bindings(reviewers string) map[string]map[string]string {
	return map[string]map[string]string{
		"http://www.liquidpub.org/a/notify": {"reviewers": reviewers},
		"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
	}
}

func runFig1() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	defer sys.Close()
	sys.Sims.Wiki.CreatePage("D1.1", "unitn-lead", "= State of the Art =")
	ref := gelee.Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "unitn-lead", bindings("epfl-reviewer,inria-reviewer"))
	if err != nil {
		return err
	}
	start := time.Now()
	for _, phase := range scenario.HappyPath {
		if _, err := sys.Advance(snap.ID, phase, "unitn-lead", gelee.AdvanceOptions{}); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	got, _ := sys.Instance(snap.ID)
	completed := 0
	for _, ex := range got.Executions {
		if ex.Terminal && ex.LastStatus == "completed" {
			completed++
		}
	}
	page, _ := sys.Sims.Wiki.Page("D1.1")
	fmt.Printf("paper: 5 phases + 2 terminal nodes, actions on entering each phase\n")
	fmt.Printf("measured: phases=%d finals=%d actions-executed=%d/%d state=%s watchers=%d protection=%s (%v)\n",
		len(got.Model.Phases), len(got.Model.FinalPhases()), completed, len(got.Executions),
		got.State, len(page.Watchers), page.Protection, elapsed.Round(time.Microsecond))
	return nil
}

func runTable1() error {
	m := scenario.QualityPlan()
	doc, err := xmlcodec.MarshalModel(m)
	if err != nil {
		return err
	}
	m2, err := xmlcodec.UnmarshalModel(doc)
	if err != nil {
		return err
	}
	fmt.Printf("paper: self-contained <process> XML (Table I vocabulary)\n")
	fmt.Printf("measured: document=%d bytes, round-trip fingerprint equal=%t\n",
		len(doc), m.Fingerprint() == m2.Fingerprint())
	start := time.Now()
	const iters = 2000
	for i := 0; i < iters; i++ {
		out, _ := xmlcodec.MarshalModel(m)
		if _, err := xmlcodec.UnmarshalModel(out); err != nil {
			return err
		}
	}
	fmt.Printf("measured: marshal+parse %v/doc\n", (time.Since(start) / iters).Round(time.Microsecond))
	return nil
}

func runTable2() error {
	at := gelee.ActionType{
		URI: "http://www.liquidpub.org/a/chr", Name: "Change Access Rights",
		Params: []gelee.Param{
			{ID: "mode", BindingTime: core.BindAny, Required: true},
			{ID: "note", BindingTime: core.BindCall},
		},
	}
	doc, err := xmlcodec.MarshalActionType(at)
	if err != nil {
		return err
	}
	at2, err := xmlcodec.UnmarshalActionType(doc)
	if err != nil {
		return err
	}
	mode, _ := at2.Param("mode")
	fmt.Printf("paper: <action_type> with bindingTime=[def|inst|call|any] required=[yes|no]\n")
	fmt.Printf("measured: document=%d bytes, mode bindingTime=%q required=%t preserved=%t\n",
		len(doc), mode.BindingTime, mode.Required, at2.Name == at.Name)
	return nil
}

func runFig2() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	defer sys.Close()
	srv := httptest.NewServer(sys.HTTPHandler())
	defer srv.Close()
	sys.Sims.GDocs.Create("D2.1", "Requirements", "epfl-lead", "draft")

	start := time.Now()
	body, _ := json.Marshal(map[string]any{
		"model_uri": scenario.QualityPlanURI,
		"resource":  map[string]string{"uri": "http://docs.liquidpub.org/docs/D2.1", "type": "gdoc"},
		"owner":     "epfl-lead",
		"bindings":  bindings("unitn-reviewer"),
	})
	resp, err := http.Post(srv.URL+"/api/v1/instances", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var inst struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&inst)
	resp.Body.Close()
	steps := 0
	for _, phase := range scenario.HappyPath {
		b, _ := json.Marshal(map[string]any{"to": phase})
		resp, err := http.Post(srv.URL+"/api/v1/instances/"+inst.ID+"/advance", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		resp.Body.Close()
		steps++
	}
	elapsed := time.Since(start)
	got, _ := sys.Instance(inst.ID)
	doc, _ := sys.Sims.GDocs.Get("D2.1")
	fmt.Printf("paper: three-layer hosted architecture, REST interface, action callbacks\n")
	fmt.Printf("measured: REST steps=%d state=%s doc-mode=%s exec-log-entries=%d (%v)\n",
		steps+1, got.State, doc.Mode, sys.ExecutionLog().Len(), elapsed.Round(time.Microsecond))
	return nil
}

func runFig3() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	defer sys.Close()
	all := sys.ActionTypes("")
	fmt.Printf("paper: design time browses all actions; runtime shows only the resource's implemented ones\n")
	fmt.Printf("measured: design-time=%d types | runtime gdoc=%d mediawiki=%d svn=%d unknown=%d\n",
		len(all), len(sys.ActionTypes("gdoc")), len(sys.ActionTypes("mediawiki")),
		len(sys.ActionTypes("svn")), len(sys.ActionTypes("house")))
	return nil
}

func runFig4() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	defer sys.Close()
	sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	snap, err := sys.Instantiate(scenario.QualityPlanURI,
		gelee.Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}, "owner", bindings("r1"))
	if err != nil {
		return err
	}
	sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})
	html, err := sys.Widgets().HTML(snap.ID, "owner")
	if err != nil {
		return err
	}
	view, _ := sys.Widgets().View(snap.ID, "owner")
	feed, _ := sys.Widgets().Feed(snap.ID, "owner")
	fmt.Printf("paper: widget shows lifecycle and resource side by side; composable into pipes\n")
	fmt.Printf("measured: html=%d bytes phases=%d resource=%q suggested=%v feed=%d bytes\n",
		len(html), len(view.Phases), view.Resource.Title, view.NextSuggested, len(feed))
	return nil
}

func runAblation() error {
	const n = 35
	// Gelee side.
	sys, err := newSystem()
	if err != nil {
		return err
	}
	defer sys.Close()
	sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	ref := gelee.Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	ids := make([]string, n)
	for i := range ids {
		snap, err := sys.Instantiate(scenario.QualityPlanURI, ref, "owner", bindings("r1"))
		if err != nil {
			return err
		}
		sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})
		ids[i] = snap.ID
	}
	start := time.Now()
	if _, err := sys.Advance(ids[0], "eureview", "owner", gelee.AdvanceOptions{Annotation: "deadline"}); err != nil {
		return err
	}
	geleeDeviation := time.Since(start)

	v2 := scenario.QualityPlan()
	v2.Phases = append(v2.Phases, &core.Phase{ID: "archival", Name: "Archival"})
	start = time.Now()
	proposed, err := sys.Propagate("", v2, "add archival")
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, err := sys.AcceptChange(id, "owner", ""); err != nil {
			return err
		}
	}
	geleeChange := time.Since(start)

	// Baseline side.
	eng := wfengine.New()
	def := wfengine.Definition{
		ID: "eu-deliverable", Initial: "elaboration",
		Final: map[string]bool{"accepted": true, "rejected": true},
		Next: map[string][]string{
			"elaboration":    {"internalreview"},
			"internalreview": {"elaboration", "finalassembly"},
			"finalassembly":  {"eureview"},
			"eureview":       {"publication", "finalassembly", "rejected"},
			"publication":    {"accepted"},
		},
	}
	if _, err := eng.Deploy(def); err != nil {
		return err
	}
	insts := make([]*wfengine.Instance, n)
	for i := range insts {
		in, _ := eng.Start("eu-deliverable")
		for _, s := range []string{"internalreview", "finalassembly", "eureview"} {
			eng.Complete(in.ID, s)
		}
		insts[i] = in
	}
	// The deviation is refused outright.
	devErr := eng.Complete(insts[0].ID, "publication") // allowed edge
	_ = devErr
	refused := eng.Complete(insts[1].ID, "elaboration") != nil

	// Achieving the deviation needs redeploy + migration of all N.
	withEdge := def
	withEdge.Next = map[string][]string{}
	for k, v := range def.Next {
		withEdge.Next[k] = append([]string(nil), v...)
	}
	withEdge.Next["eureview"] = append(withEdge.Next["eureview"], "elaboration")
	start = time.Now()
	rep, err := eng.Redeploy(withEdge)
	if err != nil {
		return err
	}
	baselineChange := time.Since(start)

	fmt.Printf("paper: descriptive model → deviations are one human act; migration reduces to state migration\n")
	fmt.Printf("measured (N=%d):\n", n)
	fmt.Printf("  gelee   deviation: 1 call, %v, other instances untouched\n", geleeDeviation.Round(time.Microsecond))
	fmt.Printf("  baseline deviation: refused=%t; requires redeploy touching all instances\n", refused)
	fmt.Printf("  gelee   model change: proposed to %d, owners accept individually, total %v\n", proposed, geleeChange.Round(time.Microsecond))
	fmt.Printf("  baseline model change: migrated=%d aborted=%d trace-steps-replayed=%d, %v\n",
		rep.Migrated, rep.Aborted, rep.Replayed, baselineChange.Round(time.Microsecond))
	return nil
}

func runLiquidPub() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	defer sys.Close()
	model, deliverables := scenario.LiquidPub()
	_ = model
	for i, d := range deliverables {
		switch d.Ref.Type {
		case "mediawiki":
			sys.Sims.Wiki.CreatePage(lastSegment(d.Ref.URI), d.Owner, d.Title)
		case "gdoc":
			sys.Sims.GDocs.Create(lastSegment(d.Ref.URI), d.Title, d.Owner, "draft")
		case "svn":
			sys.Sims.SVN.CreateRepo(lastSegment(d.Ref.URI))
			sys.Sims.SVN.Commit(lastSegment(d.Ref.URI), d.Owner, "import")
		}
		snap, err := sys.Instantiate(scenario.QualityPlanURI, d.Ref, d.Owner, bindings(d.Reviewers))
		if err != nil {
			return err
		}
		for j := 0; j <= i%len(scenario.HappyPath); j++ {
			sys.Advance(snap.ID, scenario.HappyPath[j], d.Owner, gelee.AdvanceOptions{})
		}
	}
	start := time.Now()
	sum := sys.Monitor().Summarize()
	late := sys.Monitor().Late()
	elapsed := time.Since(start)
	fmt.Printf("paper: 35 deliverables, status at a glance, particular attention to delays\n")
	fmt.Printf("measured: total=%d active=%d completed=%d late=%d by-phase=%v (query %v)\n",
		sum.Total, sum.Active, sum.Completed, len(late), sum.ByPhase, elapsed.Round(time.Microsecond))
	return nil
}

func lastSegment(uri string) string {
	for i := len(uri) - 1; i >= 0; i-- {
		if uri[i] == '/' || uri[i] == ':' {
			return uri[i+1:]
		}
	}
	return uri
}

// runtimeShards is the -runtime-shards flag value used by the runtime
// experiment.
var runtimeShards int

// runRuntimeSharding measures the runtime-sharding refactor on the
// bare runtime (no HTTP, no journal): throughput of token moves on
// disjoint instances as goroutines grow, and indexed vs scan-based
// by-resource queries. Results go to stdout and BENCH_runtime.json —
// the perf trajectory the CI bench smoke keeps compiling.
func runRuntimeSharding() error {
	model := scenario.QualityPlan()
	newRuntime := func() (*rtpkg.Runtime, error) {
		return rtpkg.New(rtpkg.Config{
			Registry:    actionlib.NewRegistry(),
			SyncActions: true,
			Shards:      runtimeShards,
		})
	}
	newInstance := func(rt *rtpkg.Runtime, n int64) (string, error) {
		ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", n), Type: "mediawiki"}
		snap, err := rt.Instantiate(model, ref, "owner", nil)
		if err != nil {
			return "", err
		}
		return snap.ID, nil
	}

	type point struct {
		Goroutines int     `json:"goroutines"`
		Moves      int     `json:"moves"`
		NsPerOp    int64   `json:"ns_per_op"`
		OpsPerSec  float64 `json:"ops_per_sec"`
	}
	const movesPerG = 10000
	var points []point
	var next atomic.Int64
	for _, g := range []int{1, 2, 4, 8} {
		rt, err := newRuntime()
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make(chan error, g)
		start := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id, err := newInstance(rt, next.Add(1))
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < movesPerG; j++ {
					// Fresh instance every 256 moves: steady
					// short-history cost, like the Go benchmarks.
					if j%256 == 255 {
						if id, err = newInstance(rt, next.Add(1)); err != nil {
							errs <- err
							return
						}
					}
					if _, err := rt.Advance(id, "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return err
		}
		elapsed := time.Since(start)
		moves := g * movesPerG
		points = append(points, point{
			Goroutines: g,
			Moves:      moves,
			NsPerOp:    elapsed.Nanoseconds() / int64(moves),
			OpsPerSec:  float64(moves) / elapsed.Seconds(),
		})
	}

	// Query ablation: the same by-resource question answered from the
	// secondary index vs a full-population scan over snapshots (what
	// the pre-sharding runtime did).
	rt, err := newRuntime()
	if err != nil {
		return err
	}
	const uris, perURI = 256, 8
	for i := 0; i < uris*perURI; i++ {
		ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i%uris), Type: "mediawiki"}
		if _, err := rt.Instantiate(model, ref, "owner", nil); err != nil {
			return err
		}
	}
	const indexedIters = 2000
	start := time.Now()
	for i := 0; i < indexedIters; i++ {
		if got := rt.ByResource(fmt.Sprintf("urn:bench:res-%d", i%uris)); len(got) != perURI {
			return fmt.Errorf("indexed ByResource returned %d, want %d", len(got), perURI)
		}
	}
	indexedNs := time.Since(start).Nanoseconds() / indexedIters
	const scanIters = 50
	start = time.Now()
	for i := 0; i < scanIters; i++ {
		uri := fmt.Sprintf("urn:bench:res-%d", i%uris)
		n := 0
		for _, snap := range rt.Instances() {
			if snap.Resource.URI == uri {
				n++
			}
		}
		if n != perURI {
			return fmt.Errorf("scan found %d, want %d", n, perURI)
		}
	}
	scanNs := time.Since(start).Nanoseconds() / scanIters
	stats := rt.RuntimeStats()

	report := struct {
		Experiment       string      `json:"experiment"`
		RuntimeShards    int         `json:"runtime_shards"`
		GOMAXPROCS       int         `json:"gomaxprocs"`
		ParallelAdvance  []point     `json:"parallel_advance"`
		ByResourceIdxNs  int64       `json:"by_resource_indexed_ns"`
		ByResourceScanNs int64       `json:"by_resource_scan_ns"`
		Stats            rtpkg.Stats `json:"runtime_stats"`
	}{
		Experiment:       "runtime-sharding",
		RuntimeShards:    stats.Shards,
		GOMAXPROCS:       gomaxprocs(),
		ParallelAdvance:  points,
		ByResourceIdxNs:  indexedNs,
		ByResourceScanNs: scanNs,
		Stats:            stats,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_runtime.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: hosted service, thousands of instances advanced by independent humans\n")
	fmt.Printf("measured (shards=%d, GOMAXPROCS=%d):\n", stats.Shards, report.GOMAXPROCS)
	for _, p := range points {
		fmt.Printf("  advance x%d goroutines: %d ns/op (%.0f ops/s)\n", p.Goroutines, p.NsPerOp, p.OpsPerSec)
	}
	fmt.Printf("  by-resource: indexed %d ns/op vs scan %d ns/op (%.0fx)\n",
		indexedNs, scanNs, float64(scanNs)/float64(indexedNs))
	fmt.Printf("  wrote BENCH_runtime.json\n")
	return nil
}

func gomaxprocs() int { return runtimego.GOMAXPROCS(0) }

// measure runs fn iters times and reports mean wall clock and mean
// bytes allocated per call (TotalAlloc delta — a bytes-copied proxy;
// single-goroutine, so the delta is fn's own).
func measure(iters int, fn func()) (nsPerOp, bytesPerOp int64) {
	var before, after runtimego.MemStats
	runtimego.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtimego.ReadMemStats(&after)
	return elapsed.Nanoseconds() / int64(iters),
		int64(after.TotalAlloc-before.TotalAlloc) / int64(iters)
}

// modePoint is one measured read-path mode.
type modePoint struct {
	NsPerOp    int64 `json:"ns_per_op"`
	BytesPerOp int64 `json:"bytes_per_op"`
}

// comparison pairs the snapshot-backed baseline with the summary-backed
// path for one query.
type comparison struct {
	Snapshot   modePoint `json:"snapshot_baseline"`
	Summary    modePoint `json:"summary_backed"`
	Speedup    float64   `json:"speedup"`
	BytesRatio float64   `json:"bytes_ratio"`
}

func compare(snapIters, sumIters int, snap, sum func()) comparison {
	var c comparison
	c.Snapshot.NsPerOp, c.Snapshot.BytesPerOp = measure(snapIters, snap)
	c.Summary.NsPerOp, c.Summary.BytesPerOp = measure(sumIters, sum)
	if c.Summary.NsPerOp > 0 {
		c.Speedup = float64(c.Snapshot.NsPerOp) / float64(c.Summary.NsPerOp)
	}
	if c.Summary.BytesPerOp > 0 {
		c.BytesRatio = float64(c.Snapshot.BytesPerOp) / float64(c.Summary.BytesPerOp)
	}
	return c
}

// runMonitorReadPath measures the copy-free read path over the ISSUE's
// reference population — 2048 instances × 128 events each — comparing
// the summary-backed cockpit (incremental counters, no history copy)
// against the snapshot-backed baseline the monitor used before, and
// snapshot-returning Advance against summary-mode Advance. The
// baselines below replicate the pre-rewrite cockpit: deep-copy every
// instance, then rescan events and executions per query.
func runMonitorReadPath() error {
	const population = 2048
	const eventsPerInstance = 128

	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	rt, err := rtpkg.New(rtpkg.Config{
		Registry:    actionlib.NewRegistry(),
		Clock:       clock,
		SyncActions: true,
	})
	if err != nil {
		return err
	}
	model := scenario.QualityPlan()
	ids := make([]string, population)
	for i := range ids {
		ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "mediawiki"}
		snap, err := rt.Instantiate(model, ref, "owner", nil)
		if err != nil {
			return err
		}
		ids[i] = snap.ID
		// created + phase-entered, then annotations up to the target
		// history length: the cheapest way to a realistic event count.
		if _, err := rt.Advance(snap.ID, "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
			return err
		}
		for e := 2; e < eventsPerInstance; e++ {
			if err := rt.Annotate(snap.ID, "owner", "progress note"); err != nil {
				return err
			}
		}
	}
	// Day 41: elaboration (due day 30) is overdue, so Late has real work.
	clock.Advance(41 * 24 * time.Hour)
	mon := monitor.New(rt, clock)

	report := struct {
		Experiment        string     `json:"experiment"`
		Population        int        `json:"population"`
		EventsPerInstance int        `json:"events_per_instance"`
		Summarize         comparison `json:"summarize"`
		Late              comparison `json:"late"`
		Overview          comparison `json:"overview"`
		Advance           comparison `json:"advance"`
		// SummarizeByPopulation is Summarize's cost at growing N;
		// SummarizeByPopulationBefore is the same measurement frozen
		// from the per-instance scan Summarize did before the runtime
		// maintained the cockpit aggregate, carried over from the
		// previous BENCH_monitor.json.
		SummarizeByPopulation       []summarizePoint `json:"summarize_by_population"`
		SummarizeByPopulationBefore json.RawMessage  `json:"summarize_by_population_before,omitempty"`
		// FilteredPage is the cockpit's filtered instance page;
		// FilteredPageBefore is the same measurement frozen from the
		// runtime that sorted the model's index entry and built a
		// summary for every candidate on each call, carried over from
		// the previous BENCH_monitor.json.
		FilteredPage       filteredPoint   `json:"filtered_page"`
		FilteredPageBefore json.RawMessage `json:"filtered_page_before,omitempty"`
		Stats              rtpkg.Stats     `json:"runtime_stats"`
	}{
		Experiment:        "monitor-readpath",
		Population:        rt.Count(),
		EventsPerInstance: eventsPerInstance,
	}

	now := clock.Now()
	report.Summarize = compare(10, 200,
		func() { snapshotSummarize(rt, now) },
		func() { mon.Summarize() })
	report.Late = compare(10, 200,
		func() { snapshotLate(rt, now) },
		func() { mon.Late() })
	report.Overview = compare(10, 200,
		func() { snapshotOverview(rt, now) },
		func() { mon.Overview() })

	// Advance response modes, round-robin over the population so each
	// instance's history stays ≈128 events across the measurement.
	i := 0
	report.Advance = compare(2048, 2048,
		func() {
			if _, err := rt.Advance(ids[i%population], "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
				panic(err)
			}
			i++
		},
		func() {
			if _, err := rt.AdvanceSummary(ids[i%population], "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
				panic(err)
			}
			i++
		})
	report.Stats = rt.RuntimeStats()

	if report.SummarizeByPopulation, err = summarizeScaling(); err != nil {
		return err
	}
	if report.FilteredPage, err = filteredPageCost(); err != nil {
		return err
	}
	if prev, err := os.ReadFile("BENCH_monitor.json"); err == nil {
		var old struct {
			Before         json.RawMessage `json:"summarize_by_population_before"`
			FilteredBefore json.RawMessage `json:"filtered_page_before"`
		}
		if json.Unmarshal(prev, &old) == nil {
			report.SummarizeByPopulationBefore = old.Before
			report.FilteredPageBefore = old.FilteredBefore
		}
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_monitor.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: \"a picture of the status of the lifecycle for each artifact at any given point in time\" (§II.B.4)\n")
	fmt.Printf("measured (population=%d, ~%d events/instance):\n", report.Population, eventsPerInstance)
	row := func(name string, c comparison) {
		fmt.Printf("  %-10s snapshot %8.2fms %8.1fKB/op | summary %8.3fms %8.1fKB/op | %5.1fx faster, %6.1fx fewer bytes\n",
			name,
			float64(c.Snapshot.NsPerOp)/1e6, float64(c.Snapshot.BytesPerOp)/1024,
			float64(c.Summary.NsPerOp)/1e6, float64(c.Summary.BytesPerOp)/1024,
			c.Speedup, c.BytesRatio)
	}
	row("summarize", report.Summarize)
	row("late", report.Late)
	row("overview", report.Overview)
	fmt.Printf("  advance    snapshot %8dns %8.1fKB/op | summary %8dns %8.1fKB/op | %5.1fx faster, %6.1fx fewer bytes\n",
		report.Advance.Snapshot.NsPerOp, float64(report.Advance.Snapshot.BytesPerOp)/1024,
		report.Advance.Summary.NsPerOp, float64(report.Advance.Summary.BytesPerOp)/1024,
		report.Advance.Speedup, report.Advance.BytesRatio)
	for _, p := range report.SummarizeByPopulation {
		fmt.Printf("  summarize at N=%-7d %8.3fms %8.1fKB/op\n", p.Population, float64(p.NsPerOp)/1e6, float64(p.BytesPerOp)/1024)
	}
	fp := report.FilteredPage
	fmt.Printf("  filtered page (N=%d, %d models, limit %d) %8.3fms %8.1fKB/op\n",
		fp.Population, fp.Models, fp.Limit, float64(fp.NsPerOp)/1e6, float64(fp.BytesPerOp)/1024)
	fmt.Printf("  wrote BENCH_monitor.json\n")
	return nil
}

// summarizePoint is Summarize's cost at one population size.
type summarizePoint struct {
	Population int   `json:"population"`
	Models     int   `json:"models"`
	NsPerOp    int64 `json:"ns_per_op"`
	BytesPerOp int64 `json:"bytes_per_op"`
}

// summarizeScaling measures the cockpit summary at 2k, 10k and 100k
// instances spread over 64 models — the shape of
// BenchmarkMonitorSummarize: each instance a few phases along the
// happy path, the clock past the early deadlines. One population is
// alive at a time.
func summarizeScaling() ([]summarizePoint, error) {
	const models = 64
	var out []summarizePoint
	for _, n := range []int{2000, 10000, 100000} {
		clock := vclock.NewFake(time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC))
		rt, err := rtpkg.New(rtpkg.Config{Registry: actionlib.NewRegistry(), Clock: clock, SyncActions: true})
		if err != nil {
			return nil, err
		}
		ms := make([]*core.Model, models)
		for i := range ms {
			ms[i] = scenario.QualityPlan()
			ms[i].URI = fmt.Sprintf("urn:bench:model-%d", i)
			ms[i].Name = fmt.Sprintf("Bench model %d", i)
		}
		for i := 0; i < n; i++ {
			ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "mediawiki"}
			snap, err := rt.Instantiate(ms[i%models], ref, "owner", nil)
			if err != nil {
				return nil, err
			}
			for _, to := range scenario.HappyPath[:i%4] {
				if _, err := rt.AdvanceSummary(snap.ID, to, "owner", rtpkg.AdvanceOptions{}); err != nil {
					return nil, err
				}
			}
		}
		clock.Advance(45 * 24 * time.Hour)
		mon := monitor.New(rt, clock)
		// Settle the build's garbage first, as testing.B does, then
		// grow the iteration count until one size takes 200ms.
		runtimego.GC()
		for iters := 1; ; iters *= 4 {
			ns, bytes := measure(iters, func() { mon.Summarize() })
			if time.Duration(ns*int64(iters)) >= 200*time.Millisecond || iters >= 1<<20 {
				out = append(out, summarizePoint{Population: n, Models: models, NsPerOp: ns, BytesPerOp: bytes})
				break
			}
		}
	}
	return out, nil
}

// filteredPoint is the cost of one filtered cockpit page.
type filteredPoint struct {
	Population int   `json:"population"`
	Models     int   `json:"models"`
	Limit      int   `json:"limit"`
	NsPerOp    int64 `json:"ns_per_op"`
	BytesPerOp int64 `json:"bytes_per_op"`
}

// filteredPageCost measures QuerySummaries(model=M, state=active,
// limit=50), the cockpit's filtered page, over the cockpit benchmark
// workload's population: 10k instances spread across 2048 models by
// Zipf(1.1), each 0-3 steps along the happy path, with M drawn by the
// same law. The runtime is rebuilt from its snapshot records in random
// order first, as a restart replays them.
func filteredPageCost() (filteredPoint, error) {
	const population, models, limit = 10000, 2048, 50
	pt := filteredPoint{Population: population, Models: models, Limit: limit}
	newRT := func() (*rtpkg.Runtime, error) {
		return rtpkg.New(rtpkg.Config{Registry: actionlib.NewRegistry(), SyncActions: true})
	}
	rt, err := newRT()
	if err != nil {
		return pt, err
	}
	rng := rand.New(rand.NewPCG(1, 2))
	zipf := rand.NewZipf(rng, 1.1, 1, models-1)
	ms := make([]*core.Model, models)
	for i := range ms {
		ms[i] = scenario.QualityPlan()
		ms[i].URI = fmt.Sprintf("urn:bench:model-%04d", i)
	}
	for i := 0; i < population; i++ {
		ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "mediawiki"}
		snap, err := rt.Instantiate(ms[zipf.Uint64()], ref, "owner", nil)
		if err != nil {
			return pt, err
		}
		for _, to := range scenario.HappyPath[:rng.IntN(4)] {
			if _, err := rt.AdvanceSummary(snap.ID, to, "owner", rtpkg.AdvanceOptions{}); err != nil {
				return pt, err
			}
		}
	}
	type rec struct {
		id   string
		data []byte
	}
	var recs []rec
	if err := rt.EmitSnapshots(func(id string, data []byte) error {
		recs = append(recs, rec{id, data})
		return nil
	}); err != nil {
		return pt, err
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	if rt, err = newRT(); err != nil {
		return pt, err
	}
	for _, r := range recs {
		if err := rt.ApplyJournal(r.id, r.data); err != nil {
			return pt, err
		}
	}
	rt.FinishRecovery()
	picks := make([]string, 4096)
	for i := range picks {
		picks[i] = ms[zipf.Uint64()].URI
	}
	next := 0
	query := func() {
		rt.QuerySummaries(rtpkg.Filter{ModelURI: picks[next%len(picks)], State: rtpkg.StateActive}, 0, limit)
		next++
	}
	recs = nil
	runtimego.GC()
	for iters := 1; ; iters *= 4 {
		ns, bytes := measure(iters, query)
		if time.Duration(ns*int64(iters)) >= 200*time.Millisecond || iters >= 1<<20 {
			pt.NsPerOp, pt.BytesPerOp = ns, bytes
			return pt, nil
		}
	}
}

// runPersist measures the durable-runtime refactor: the write-through
// overhead of journaling every token move (the acceptance bar is ≤2x
// over the RAM-only advance path under a concurrent workload, where
// combined flushes amortize the append), and the replay throughput of
// rebuilding the whole runtime from the journal on restart. Results go
// to stdout and BENCH_persist.json.
func runPersist() error {
	const goroutines, movesPerG = 8, 2000
	model := scenario.QualityPlan()

	// workload drives disjoint-instance token moves from `goroutines`
	// goroutines against rt, returning ns per advance.
	workload := func(rt *rtpkg.Runtime) (int64, error) {
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				newInst := func() (string, error) {
					ref := resource.Ref{URI: fmt.Sprintf("urn:persist:res-%d", next.Add(1)), Type: "mediawiki"}
					snap, err := rt.Instantiate(model, ref, "owner", nil)
					if err != nil {
						return "", err
					}
					return snap.ID, nil
				}
				id, err := newInst()
				if err != nil {
					errs <- err
					return
				}
				for j := 0; j < movesPerG; j++ {
					if j%256 == 255 {
						if id, err = newInst(); err != nil {
							errs <- err
							return
						}
					}
					if _, err := rt.AdvanceSummary(id, "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return 0, err
		}
		return time.Since(start).Nanoseconds() / int64(goroutines*movesPerG), nil
	}

	newRuntime := func(sink rtpkg.Journal) (*rtpkg.Runtime, error) {
		return rtpkg.New(rtpkg.Config{
			Registry:    actionlib.NewRegistry(),
			SyncActions: true,
			Journal:     sink,
		})
	}

	// Baseline: RAM-only advances.
	ramRT, err := newRuntime(nil)
	if err != nil {
		return err
	}
	ramNs, err := workload(ramRT)
	if err != nil {
		return err
	}

	// Write-through: every mutation journaled through the instance
	// collection's appender before it is acknowledged.
	dir, err := os.MkdirTemp("", "gelee-bench-persist-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	coll, err := store.OpenInstances(dir, store.InstancesOptions{})
	if err != nil {
		return err
	}
	sink := rtpkg.JournalFunc(func(rec *rtpkg.JournalRecord) error {
		data, err := rec.Encode()
		if err != nil {
			return err
		}
		return coll.Append(rec.Instance, data)
	})
	persistRT, err := newRuntime(sink)
	if err != nil {
		return err
	}
	if err := coll.Replay(persistRT.ApplyJournal); err != nil {
		return err
	}
	persistNs, err := workload(persistRT)
	if err != nil {
		return err
	}
	engineStats := coll.Stats()
	population := persistRT.Count()
	if err := coll.Close(); err != nil {
		return err
	}

	// Replay: reopen the journal into a fresh runtime and measure the
	// rebuild — what a geleed restart pays before serving.
	coll2, err := store.OpenInstances(dir, store.InstancesOptions{})
	if err != nil {
		return err
	}
	defer coll2.Close()
	recoveredRT, err := newRuntime(nil)
	if err != nil {
		return err
	}
	replayStart := time.Now()
	if err := coll2.Replay(recoveredRT.ApplyJournal); err != nil {
		return err
	}
	rec := recoveredRT.FinishRecovery()
	replayNs := time.Since(replayStart).Nanoseconds()
	if rec.Instances != population {
		return fmt.Errorf("replay recovered %d instances, want %d", rec.Instances, population)
	}

	overhead := float64(persistNs) / float64(ramNs)
	recPerSec := float64(rec.Records) / (float64(replayNs) / 1e9)
	report := struct {
		Experiment    string              `json:"experiment"`
		Goroutines    int                 `json:"goroutines"`
		Moves         int                 `json:"moves"`
		GOMAXPROCS    int                 `json:"gomaxprocs"`
		RAMAdvanceNs  int64               `json:"ram_advance_ns"`
		PersistNs     int64               `json:"persist_advance_ns"`
		Overhead      float64             `json:"write_through_overhead"`
		Engine        store.EngineStats   `json:"instance_engine"`
		Replay        rtpkg.RecoveryStats `json:"replay"`
		ReplayNs      int64               `json:"replay_ns"`
		RecordsPerSec float64             `json:"replay_records_per_sec"`
	}{
		Experiment:    "persist",
		Goroutines:    goroutines,
		Moves:         goroutines * movesPerG,
		GOMAXPROCS:    gomaxprocs(),
		RAMAdvanceNs:  ramNs,
		PersistNs:     persistNs,
		Overhead:      overhead,
		Engine:        engineStats,
		Replay:        rec,
		ReplayNs:      replayNs,
		RecordsPerSec: recPerSec,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_persist.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: a hosted service must not lose token positions on restart (durable repositories, Fig. 2)\n")
	fmt.Printf("measured (x%d goroutines, %d moves, GOMAXPROCS=%d):\n", goroutines, report.Moves, report.GOMAXPROCS)
	fmt.Printf("  advance RAM-only:      %6d ns/op\n", ramNs)
	fmt.Printf("  advance write-through: %6d ns/op (%.2fx overhead; %d records in %d batches, mean batch %.1f)\n",
		persistNs, overhead, engineStats.Appends, engineStats.Batches,
		float64(engineStats.Appends)/float64(max64(engineStats.Batches, 1)))
	fmt.Printf("  replay: %d instances, %d events, %d executions from %d records in %v (%.0f records/s)\n",
		rec.Instances, rec.Events, rec.Executions, rec.Records,
		time.Duration(replayNs).Round(time.Microsecond), recPerSec)
	fmt.Printf("  wrote BENCH_persist.json\n")
	return nil
}

// runSegments measures what segment rotation + snapshot folding buys:
// restart replay cost as history grows, with and without folding. The
// same workload — a fixed population advanced round after round — runs
// against two instance journals with identical segment rotation; one
// folds sealed segments into per-instance snapshot records after each
// round, the other lets them accumulate (the pre-folding behavior).
// Without folding the records replayed on restart grow linearly with
// total history; with folding they stay bounded at roughly the live
// population plus the unfolded tail. Results go to stdout and
// BENCH_segments.json.
func runSegments() error {
	const (
		population    = 64
		movesPerRound = 2000
		rounds        = 6
		segmentMax    = 64 << 10
	)
	model := scenario.QualityPlan()

	type point struct {
		Round        int   `json:"round"`
		TotalRecords int64 `json:"total_records"` // cumulative history ever journaled
		Replayed     int64 `json:"replayed"`      // records streamed on restart
		Snapshot     int   `json:"snapshot_entries"`
		Tail         int   `json:"tail_entries"`
		Skipped      int   `json:"skipped_entries"`
		ReplayNs     int64 `json:"replay_ns"`
	}

	run := func(fold bool) ([]point, error) {
		dir, err := os.MkdirTemp("", "gelee-bench-segments-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		var points []point
		var total int64
		for round := 0; round < rounds; round++ {
			coll, err := store.OpenInstances(dir, store.InstancesOptions{SegmentMaxBytes: segmentMax})
			if err != nil {
				return nil, err
			}
			sink := rtpkg.JournalFunc(func(rec *rtpkg.JournalRecord) error {
				data, err := rec.Encode()
				if err != nil {
					return err
				}
				return coll.Append(rec.Instance, data)
			})
			rt, err := rtpkg.New(rtpkg.Config{
				Registry:    actionlib.NewRegistry(),
				SyncActions: true,
				Journal:     sink,
			})
			if err != nil {
				return nil, err
			}
			replayStart := time.Now()
			if err := coll.ReplayParallel(gomaxprocs(), rt.ApplyJournal); err != nil {
				return nil, err
			}
			replayNs := time.Since(replayStart).Nanoseconds()
			rec := rt.FinishRecovery()
			rs := coll.ReplayStats()
			if round > 0 {
				if rec.Instances != population {
					return nil, fmt.Errorf("round %d recovered %d instances, want %d", round, rec.Instances, population)
				}
				points = append(points, point{
					Round:        round,
					TotalRecords: total,
					Replayed:     rec.Records,
					Snapshot:     rs.SnapshotEntries,
					Tail:         rs.TailEntries,
					Skipped:      rs.SkippedEntries,
					ReplayNs:     replayNs,
				})
			}

			var ids []string
			if round == 0 {
				for i := 0; i < population; i++ {
					ref := resource.Ref{URI: fmt.Sprintf("urn:seg:res-%d", i), Type: "mediawiki"}
					snap, err := rt.Instantiate(model, ref, "owner", nil)
					if err != nil {
						return nil, err
					}
					ids = append(ids, snap.ID)
					total++
				}
			} else {
				for _, sum := range rt.Summaries() {
					ids = append(ids, sum.ID)
				}
			}
			for i := 0; i < movesPerRound; i++ {
				if _, err := rt.AdvanceSummary(ids[i%population], "elaboration", "owner", rtpkg.AdvanceOptions{}); err != nil {
					return nil, err
				}
				total++
			}
			if fold {
				coll.SetSnapshotSource(rt.EmitSnapshots)
				if err := coll.Compact(); err != nil {
					return nil, err
				}
			}
			if err := coll.Close(); err != nil {
				return nil, err
			}
		}
		return points, nil
	}

	folded, err := run(true)
	if err != nil {
		return err
	}
	unfolded, err := run(false)
	if err != nil {
		return err
	}

	report := struct {
		Experiment    string  `json:"experiment"`
		Population    int     `json:"population"`
		MovesPerRound int     `json:"moves_per_round"`
		SegmentBytes  int     `json:"segment_max_bytes"`
		GOMAXPROCS    int     `json:"gomaxprocs"`
		Folded        []point `json:"folded"`
		Unfolded      []point `json:"unfolded"`
	}{
		Experiment:    "segments",
		Population:    population,
		MovesPerRound: movesPerRound,
		SegmentBytes:  segmentMax,
		GOMAXPROCS:    gomaxprocs(),
		Folded:        folded,
		Unfolded:      unfolded,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_segments.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: a hosted service must restart fast no matter how much history it has accumulated\n")
	fmt.Printf("measured (%d instances, %d moves/round, %d-byte segments):\n", population, movesPerRound, segmentMax)
	fmt.Printf("  %-6s %14s | folded %9s %8s | unfolded %9s %8s\n",
		"round", "total records", "replayed", "ms", "replayed", "ms")
	for i := range folded {
		f, u := folded[i], unfolded[i]
		fmt.Printf("  %-6d %14d | %16d %8.1f | %18d %8.1f\n",
			f.Round, u.TotalRecords, f.Replayed, float64(f.ReplayNs)/1e6, u.Replayed, float64(u.ReplayNs)/1e6)
	}
	if n := len(folded); n >= 2 {
		fmt.Printf("  folded replay bounded: %d -> %d records; unfolded grew %d -> %d\n",
			folded[0].Replayed, folded[n-1].Replayed, unfolded[0].Replayed, unfolded[n-1].Replayed)
	}
	fmt.Printf("  wrote BENCH_segments.json\n")
	return nil
}

// runFold measures what fold-by-reference archives buy: the cost of a
// compaction as log history grows tenfold. Rounds of execution-log
// appends, each followed by Compact, run against a store that keeps a
// small live window and spills older history into archives carried by
// reference, so each fold writes O(live window + one round of spill),
// flat as history grows. Reads must not notice: the full log and a
// cursor page-walk are verified byte-identical before close and after
// reopen. Results go to stdout and BENCH_fold.json. The full-history
// rewrite that archives replaced, whose fold cost grew linearly, is no
// longer run: its series and growth figures are carried forward
// unchanged from the previous BENCH_fold.json.
func runFold() error {
	const (
		rounds     = 10
		perRound   = 2000
		instances  = 64
		liveWindow = 500
	)

	type point struct {
		Round           int    `json:"round"`
		TotalEntries    int    `json:"total_entries"`
		FoldNs          int64  `json:"fold_ns"`
		FoldBytes       uint64 `json:"fold_bytes"`
		SnapshotEntries int64  `json:"snapshot_entries"`
		SnapshotBytes   int64  `json:"snapshot_bytes"`
		Archives        int64  `json:"archives"`
		ArchiveBytes    int64  `json:"archive_bytes"`
	}
	type series struct {
		Points       []point `json:"points"`
		ReplayedOpen int     `json:"replayed_on_reopen"` // snapshot + tail entries streamed
		ArchiveRefs  int     `json:"archive_refs_on_reopen"`
		ReadsEqual   bool    `json:"reads_byte_identical"`
	}

	// fullJSON renders the whole log — All() stitched cold-then-live —
	// so two states can be compared bytewise.
	fullJSON := func(lg *store.Log) ([]byte, error) {
		return json.Marshal(lg.All())
	}
	// pageJSON walks the same history through the cursor API in
	// 333-entry pages — the cockpit's read path over unbounded history.
	pageJSON := func(lg *store.Log) ([]byte, error) {
		var all []store.LogEntry
		after := uint64(0)
		for {
			page, err := lg.Page(after, 333)
			if err != nil {
				return nil, err
			}
			if len(page) == 0 {
				break
			}
			all = append(all, page...)
			after = page[len(page)-1].Seq
		}
		return json.Marshal(all)
	}

	run := func() (series, error) {
		var ser series
		dir, err := os.MkdirTemp("", "gelee-bench-fold-*")
		if err != nil {
			return ser, err
		}
		defer os.RemoveAll(dir)
		opts := store.Options{LogLiveWindow: liveWindow}
		st, err := store.Open(dir, opts)
		if err != nil {
			return ser, err
		}
		lg := store.MustLog(st, "execlog")
		if err := st.Load(); err != nil {
			return ser, err
		}
		total := 0
		for round := 1; round <= rounds; round++ {
			for i := 0; i < perRound; i++ {
				_, err := lg.Append(store.LogEntry{
					Instance: fmt.Sprintf("inst-%d", i%instances),
					Kind:     "phase-entered",
					Actor:    "owner",
					Detail:   fmt.Sprintf("round %d move %d", round, i),
				})
				if err != nil {
					st.Close()
					return ser, err
				}
				total++
			}
			before := st.Stats().Engine.FoldBytesWritten
			start := time.Now()
			if err := st.Compact(); err != nil {
				st.Close()
				return ser, err
			}
			foldNs := time.Since(start).Nanoseconds()
			est := st.Stats().Engine
			ser.Points = append(ser.Points, point{
				Round:           round,
				TotalEntries:    total,
				FoldNs:          foldNs,
				FoldBytes:       est.FoldBytesWritten - before,
				SnapshotEntries: est.SnapshotEntries,
				SnapshotBytes:   est.SnapshotBytes,
				Archives:        est.Archives,
				ArchiveBytes:    est.ArchiveBytes,
			})
		}

		// History must read back byte-identical: full stitched log and
		// cursor page-walk, before close and after a restart replay.
		beforeAll, err := fullJSON(lg)
		if err != nil {
			st.Close()
			return ser, err
		}
		beforePages, err := pageJSON(lg)
		if err != nil {
			st.Close()
			return ser, err
		}
		if err := st.Close(); err != nil {
			return ser, err
		}
		st2, err := store.Open(dir, opts)
		if err != nil {
			return ser, err
		}
		defer st2.Close()
		lg2 := store.MustLog(st2, "execlog")
		if err := st2.Load(); err != nil {
			return ser, err
		}
		rs := st2.Stats().Engine.Replay
		ser.ReplayedOpen = rs.SnapshotEntries + rs.TailEntries
		ser.ArchiveRefs = rs.ArchiveRefs
		afterAll, err := fullJSON(lg2)
		if err != nil {
			return ser, err
		}
		afterPages, err := pageJSON(lg2)
		if err != nil {
			return ser, err
		}
		ser.ReadsEqual = bytes.Equal(beforeAll, afterAll) &&
			bytes.Equal(beforeAll, beforePages) && bytes.Equal(beforeAll, afterPages)
		if lg2.Len() != total {
			return ser, fmt.Errorf("reopened log has %d entries, want %d", lg2.Len(), total)
		}
		if !ser.ReadsEqual {
			return ser, fmt.Errorf("log reads diverged across archiving/reopen")
		}
		return ser, nil
	}

	archived, err := run()
	if err != nil {
		return err
	}

	// Cost growth over a 10x history: last fold vs first fold. The
	// archived series must stay flat (≤1.5x is the acceptance bar).
	first, last := archived.Points[0], archived.Points[len(archived.Points)-1]
	var archBytesX, archTimeX float64
	if first.FoldBytes > 0 {
		archBytesX = float64(last.FoldBytes) / float64(first.FoldBytes)
	}
	if first.FoldNs > 0 {
		archTimeX = float64(last.FoldNs) / float64(first.FoldNs)
	}

	report := struct {
		Experiment     string  `json:"experiment"`
		Rounds         int     `json:"rounds"`
		PerRound       int     `json:"entries_per_round"`
		LiveWindow     int     `json:"live_window"`
		Archived       series  `json:"archived"`
		ArchivedBytesX float64 `json:"archived_fold_bytes_growth"`
		ArchivedTimeX  float64 `json:"archived_fold_time_growth"`
		// Legacy, LegacyBytesX and LegacyTimeX are the full-history
		// rewrite's figures, frozen from its last run and carried over
		// from the previous BENCH_fold.json.
		Legacy       json.RawMessage `json:"legacy,omitempty"`
		LegacyBytesX json.RawMessage `json:"legacy_fold_bytes_growth,omitempty"`
		LegacyTimeX  json.RawMessage `json:"legacy_fold_time_growth,omitempty"`
	}{
		Experiment:     "fold",
		Rounds:         rounds,
		PerRound:       perRound,
		LiveWindow:     liveWindow,
		Archived:       archived,
		ArchivedBytesX: archBytesX,
		ArchivedTimeX:  archTimeX,
	}
	if prev, err := os.ReadFile("BENCH_fold.json"); err == nil {
		var old struct {
			Legacy       json.RawMessage `json:"legacy"`
			LegacyBytesX json.RawMessage `json:"legacy_fold_bytes_growth"`
			LegacyTimeX  json.RawMessage `json:"legacy_fold_time_growth"`
		}
		if json.Unmarshal(prev, &old) == nil {
			report.Legacy, report.LegacyBytesX, report.LegacyTimeX = old.Legacy, old.LegacyBytesX, old.LegacyTimeX
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_fold.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: the execution log is the permanent audit trail — compaction must not slow down as it grows\n")
	fmt.Printf("measured (%d rounds x %d log appends, live window %d):\n", rounds, perRound, liveWindow)
	fmt.Printf("  %-6s %8s | archived %9s %9s %5s\n", "round", "entries", "fold KB", "ms", "archs")
	for _, a := range archived.Points {
		fmt.Printf("  %-6d %8d | %17.1f %9.2f %5d\n",
			a.Round, a.TotalEntries, float64(a.FoldBytes)/1024, float64(a.FoldNs)/1e6, a.Archives)
	}
	fmt.Printf("  fold bytes growth over 10x history: archived %.2fx (bar: <=1.5x; frozen full rewrite: %s)\n",
		archBytesX, report.LegacyBytesX)
	fmt.Printf("  fold time  growth over 10x history: archived %.2fx (frozen full rewrite: %s)\n",
		archTimeX, report.LegacyTimeX)
	fmt.Printf("  reopen replay: %d entries + %d refs; reads byte-identical: %t\n",
		archived.ReplayedOpen, archived.ArchiveRefs, archived.ReadsEqual)
	fmt.Printf("  wrote BENCH_fold.json\n")
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ---- snapshot-backed cockpit baselines (the pre-rewrite algorithms) ----

func snapshotLateRow(s rtpkg.Snapshot, now time.Time) (deviations, failed, pending int) {
	for _, ev := range s.Events {
		if ev.Kind == rtpkg.EventPhaseEntered && ev.Deviation {
			deviations++
		}
	}
	for _, ex := range s.Executions {
		switch {
		case ex.Terminal && ex.LastStatus == "failed":
			failed++
		case !ex.Terminal:
			pending++
		}
	}
	return
}

func snapshotSummarize(rt *rtpkg.Runtime, now time.Time) (total, late, deviations, failed int) {
	byPhase := make(map[string]int)
	for _, s := range rt.Instances() {
		total++
		if p := s.CurrentPhase(); p != nil {
			byPhase[p.Name]++
		}
		if s.Late(now) {
			late++
		}
		d, f, _ := snapshotLateRow(s, now)
		deviations += d
		failed += f
	}
	return
}

func snapshotLate(rt *rtpkg.Runtime, now time.Time) int {
	n := 0
	for _, s := range rt.Instances() {
		if s.Late(now) {
			d, f, p := snapshotLateRow(s, now)
			_, _, _ = d, f, p
			n++
		}
	}
	return n
}

func snapshotOverview(rt *rtpkg.Runtime, now time.Time) int {
	n := 0
	for _, s := range rt.Instances() {
		d, f, p := snapshotLateRow(s, now)
		_, _, _ = d, f, p
		n++
	}
	return n
}

// ---- E15: overload & failure engineering ----

// benchFaultSink is the injected journal fault for the read-only
// phase: pass-through until armed, then every append fails.
type benchFaultSink struct {
	inner rtpkg.Journal
	armed atomic.Bool
	fails atomic.Int64
}

func (f *benchFaultSink) Record(rec *rtpkg.JournalRecord) error {
	if f.armed.Load() {
		f.fails.Add(1)
		return errors.New("injected: disk gone")
	}
	if f.inner == nil {
		return nil
	}
	return f.inner.Record(rec)
}

// runOverload measures the three failure shields: admission control
// under a saturated commit queue (shed cost vs letting the burst in),
// the read-only fallback under a failing journal (trip speed and
// probe-driven recovery time), and circuit-breaker isolation of a
// wedged action endpoint (opens, fast-fail cost, flat latency for
// healthy dispatch). Results go to stdout and BENCH_overload.json.
func runOverload() error {
	const burst = 48

	// Phase 1 — admission control. The same saturated mutation burst
	// runs against a shedding system and a non-shedding one.
	shedPhase := func(maxQueue int) (acked, shed int, meanRespNs int64, rep struct {
		Shed    int64
		Resumed int
	}, err error) {
		var depth atomic.Int64
		sys, err := gelee.New(gelee.Options{
			EmbeddedPlugins: true,
			SyncActions:     true,
			Resilience: gelee.ResilienceOptions{
				MaxQueueDepth:  maxQueue,
				ShedRetryAfter: time.Second,
				DepthSignal:    func() int { return int(depth.Load()) },
			},
		})
		if err != nil {
			return 0, 0, 0, rep, err
		}
		defer sys.Close()
		if err := sys.DefineModel("", scenario.QualityPlan()); err != nil {
			return 0, 0, 0, rep, err
		}
		srv := httptest.NewServer(sys.HTTPHandler())
		defer srv.Close()

		ids := make([]string, burst)
		for i := range ids {
			page := fmt.Sprintf("SHED-%d", i)
			if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
				return 0, 0, 0, rep, err
			}
			snap, err := sys.Instantiate(scenario.QualityPlanURI,
				gelee.Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"},
				"owner", nil)
			if err != nil {
				return 0, 0, 0, rep, err
			}
			ids[i] = snap.ID
		}

		advance := func(id string) (int, error) {
			resp, err := http.Post(srv.URL+"/api/v1/instances/"+id+"/advance",
				"application/json", bytes.NewReader([]byte(`{"to":"elaboration","actor":"owner"}`)))
			if err != nil {
				return 0, err
			}
			resp.Body.Close()
			return resp.StatusCode, nil
		}

		// Saturate the depth signal and fire the burst.
		depth.Store(int64(maxQueue*10 + 100))
		var total time.Duration
		shedIDs := make([]string, 0, burst)
		for _, id := range ids {
			start := time.Now()
			code, err := advance(id)
			total += time.Since(start)
			if err != nil {
				return 0, 0, 0, rep, err
			}
			switch code {
			case http.StatusOK:
				acked++
			case http.StatusTooManyRequests:
				shed++
				shedIDs = append(shedIDs, id)
			default:
				return 0, 0, 0, rep, fmt.Errorf("burst advance: status %d", code)
			}
		}
		meanRespNs = total.Nanoseconds() / int64(burst)

		// Drain the backlog: every shed mutation is admitted on retry.
		depth.Store(0)
		for _, id := range shedIDs {
			code, err := advance(id)
			if err != nil {
				return 0, 0, 0, rep, err
			}
			if code == http.StatusOK {
				rep.Resumed++
			}
		}
		rep.Shed = sys.HealthReport().Admission.Shed
		return acked, shed, meanRespNs, rep, nil
	}

	openAcked, openShed, openNs, _, err := shedPhase(0) // shedding off
	if err != nil {
		return err
	}
	onAcked, onShed, onNs, shedRep, err := shedPhase(8) // shedding on
	if err != nil {
		return err
	}

	// Phase 2 — read-only fallback. An injected journal fault trips the
	// health machine; once the fault clears, only the durability prober
	// can walk it back to healthy.
	fault := &benchFaultSink{}
	roSys, err := gelee.New(gelee.Options{
		EmbeddedPlugins: true,
		SyncActions:     true,
		Resilience: gelee.ResilienceOptions{
			DegradeAfter:  1,
			ReadOnlyAfter: 3,
			RecoverAfter:  2,
			ProbeInterval: 2 * time.Millisecond,
			WrapJournal: func(inner rtpkg.Journal) rtpkg.Journal {
				fault.inner = inner
				return fault
			},
		},
	})
	if err != nil {
		return err
	}
	defer roSys.Close()
	if err := roSys.DefineModel("", scenario.QualityPlan()); err != nil {
		return err
	}
	if _, err := roSys.Sims.Wiki.CreatePage("RO-1", "owner", "x"); err != nil {
		return err
	}
	roSnap, err := roSys.Instantiate(scenario.QualityPlanURI,
		gelee.Ref{URI: "http://wiki.liquidpub.org/pages/RO-1", Type: "mediawiki"}, "owner", nil)
	if err != nil {
		return err
	}

	fault.armed.Store(true)
	tripStart := time.Now()
	tripWrites := 0
	for i := 0; roSys.Health() != resilience.ReadOnly && i < 10; i++ {
		roSys.Advance(roSnap.ID, scenario.HappyPath[i%len(scenario.HappyPath)], "owner", gelee.AdvanceOptions{})
		tripWrites++
	}
	tripNs := time.Since(tripStart).Nanoseconds()
	if roSys.Health() != resilience.ReadOnly {
		return fmt.Errorf("injected journal fault never tripped read-only (health %v)", roSys.Health())
	}
	const rejectProbes = 100
	rejected := 0
	for i := 0; i < rejectProbes; i++ {
		if err := roSys.AdmitMutation(); errors.Is(err, resilience.ErrReadOnly) {
			rejected++
		}
	}

	fault.armed.Store(false)
	healStart := time.Now()
	for roSys.Health() != resilience.Healthy {
		if time.Since(healStart) > 10*time.Second {
			return fmt.Errorf("probes never recovered the system (health %v)", roSys.Health())
		}
		time.Sleep(time.Millisecond)
	}
	recoverNs := time.Since(healStart).Nanoseconds()
	roRep := roSys.HealthReport()

	// Phase 3 — circuit-breaker isolation. One wedged REST endpoint,
	// one healthy; the breaker must open on the wedged one and healthy
	// dispatch latency must stay flat.
	var wedgedHits, healthyHits atomic.Int64
	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wedgedHits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	// LIFO: the handlers must unblock before Close can drain them.
	defer wedged.Close()
	defer close(release)
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		healthyHits.Add(1)
	}))
	defer healthy.Close()

	const brFailures = 3
	brSys, err := gelee.New(gelee.Options{
		EmbeddedPlugins: true,
		SyncActions:     true,
		Resilience: gelee.ResilienceOptions{
			InvokeTimeout:   50 * time.Millisecond,
			BreakerFailures: brFailures,
			BreakerCooldown: time.Hour,
		},
	})
	if err != nil {
		return err
	}
	defer brSys.Close()

	registerEndpoint := func(name, endpoint string) (string, error) {
		uri := "http://actions.bench/" + name
		err := brSys.RegisterAction("", actionlib.ActionType{URI: uri, Name: name},
			actionlib.Implementation{
				TypeURI:      uri,
				ResourceType: "mediawiki",
				Endpoint:     endpoint,
				Protocol:     actionlib.ProtocolREST,
			})
		return uri, err
	}
	wedgedURI, err := registerEndpoint("wedge", wedged.URL)
	if err != nil {
		return err
	}
	healthyURI, err := registerEndpoint("fine", healthy.URL)
	if err != nil {
		return err
	}
	mkModel := func(name, actionURI string) (string, error) {
		uri := "urn:bench:models:" + name
		m := gelee.NewModel(uri, name).
			SuggestTypes("mediawiki").
			Phase("work", "Work").Action(actionURI, name).Done().
			FinalPhase("done", "Done").
			Initial("work").
			Chain("work", "done").
			MustBuild()
		return uri, brSys.DefineModel("", m)
	}
	wedgedModel, err := mkModel("wedged", wedgedURI)
	if err != nil {
		return err
	}
	healthyModel, err := mkModel("healthy", healthyURI)
	if err != nil {
		return err
	}
	advanceNew := func(modelURI, page string) (time.Duration, error) {
		if _, err := brSys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
			return 0, err
		}
		snap, err := brSys.Instantiate(modelURI,
			gelee.Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := brSys.Advance(snap.ID, "work", "owner", gelee.AdvanceOptions{}); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}

	const healthyN = 16
	// Baseline: healthy dispatch with no open circuit anywhere.
	var baseTotal time.Duration
	for i := 0; i < healthyN; i++ {
		d, err := advanceNew(healthyModel, fmt.Sprintf("HB-%d", i))
		if err != nil {
			return err
		}
		baseTotal += d
	}
	baseNs := baseTotal.Nanoseconds() / healthyN

	// Wedge: the first brFailures dispatches pay the timeout and open
	// the circuit; the rest fast-fail without touching the endpoint.
	const wedgedN = brFailures + 3
	var wedgeTotal, fastFailTotal time.Duration
	for i := 0; i < wedgedN; i++ {
		d, err := advanceNew(wedgedModel, fmt.Sprintf("WB-%d", i))
		if err != nil {
			return err
		}
		wedgeTotal += d
		if i >= brFailures {
			fastFailTotal += d
		}
	}
	fastFailNs := fastFailTotal.Nanoseconds() / int64(wedgedN-brFailures)

	// Healthy dispatch again, with the wedged circuit open next door.
	var isoTotal time.Duration
	for i := 0; i < healthyN; i++ {
		d, err := advanceNew(healthyModel, fmt.Sprintf("HI-%d", i))
		if err != nil {
			return err
		}
		isoTotal += d
	}
	isoNs := isoTotal.Nanoseconds() / healthyN
	brRep := brSys.HealthReport()
	wedgedState := brRep.Breakers[wedged.URL].State
	healthyState := brRep.Breakers[healthy.URL].State
	latencyX := float64(isoNs) / float64(baseNs)

	report := struct {
		Experiment string `json:"experiment"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Shedding   struct {
			Burst          int   `json:"burst"`
			OffAcked       int   `json:"off_acked"`
			OffShed        int   `json:"off_shed"`
			OffMeanRespNs  int64 `json:"off_mean_resp_ns"`
			OnAcked        int   `json:"on_acked"`
			OnShed         int   `json:"on_shed"`
			OnMeanRespNs   int64 `json:"on_mean_resp_ns"`
			ShedTotal      int64 `json:"shed_total"`
			ResumedOnDrain int   `json:"resumed_on_drain"`
		} `json:"shedding"`
		ReadOnly struct {
			TripWrites    int   `json:"trip_writes"`
			TripNs        int64 `json:"trip_ns"`
			Rejected      int   `json:"rejected"`
			RejectedOf    int   `json:"rejected_of"`
			RecoverNs     int64 `json:"recover_ns"`
			ProbeAttempts int64 `json:"probe_attempts"`
			SinkFailures  int64 `json:"sink_failures"`
			ReadOnlyTrips int64 `json:"read_only_transitions"`
			Recoveries    int64 `json:"recoveries"`
		} `json:"read_only"`
		Breaker struct {
			Failures       int     `json:"failures_to_open"`
			WedgedCalls    int     `json:"wedged_dispatches"`
			WedgedHits     int64   `json:"wedged_endpoint_hits"`
			Opens          int64   `json:"opens"`
			Rejected       int64   `json:"rejected"`
			FastFailNs     int64   `json:"fast_fail_ns"`
			WedgedState    string  `json:"wedged_state"`
			HealthyState   string  `json:"healthy_state"`
			HealthyHits    int64   `json:"healthy_endpoint_hits"`
			BaselineNs     int64   `json:"healthy_advance_baseline_ns"`
			OpenNextDoorNs int64   `json:"healthy_advance_breaker_open_ns"`
			LatencyRatio   float64 `json:"healthy_latency_ratio"`
		} `json:"breaker"`
	}{Experiment: "overload", GOMAXPROCS: gomaxprocs()}
	report.Shedding.Burst = burst
	report.Shedding.OffAcked = openAcked
	report.Shedding.OffShed = openShed
	report.Shedding.OffMeanRespNs = openNs
	report.Shedding.OnAcked = onAcked
	report.Shedding.OnShed = onShed
	report.Shedding.OnMeanRespNs = onNs
	report.Shedding.ShedTotal = shedRep.Shed
	report.Shedding.ResumedOnDrain = shedRep.Resumed
	report.ReadOnly.TripWrites = tripWrites
	report.ReadOnly.TripNs = tripNs
	report.ReadOnly.Rejected = rejected
	report.ReadOnly.RejectedOf = rejectProbes
	report.ReadOnly.RecoverNs = recoverNs
	report.ReadOnly.ProbeAttempts = roRep.Probes.Attempts
	report.ReadOnly.SinkFailures = fault.fails.Load()
	report.ReadOnly.ReadOnlyTrips = roRep.Health.ReadOnlyTotal
	report.ReadOnly.Recoveries = roRep.Health.RecoveredTotal
	report.Breaker.Failures = brFailures
	report.Breaker.WedgedCalls = wedgedN
	report.Breaker.WedgedHits = wedgedHits.Load()
	report.Breaker.Opens = brRep.BreakerOpens
	report.Breaker.Rejected = brRep.BreakerRejected
	report.Breaker.FastFailNs = fastFailNs
	report.Breaker.WedgedState = wedgedState
	report.Breaker.HealthyState = healthyState
	report.Breaker.HealthyHits = healthyHits.Load()
	report.Breaker.BaselineNs = baseNs
	report.Breaker.OpenNextDoorNs = isoNs
	report.Breaker.LatencyRatio = latencyX

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_overload.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: a hosted lifecycle service (Fig. 2) must survive overload and partner failures without losing acked work\n")
	fmt.Printf("measured (burst %d mutations over HTTP, GOMAXPROCS=%d):\n", burst, report.GOMAXPROCS)
	fmt.Printf("  shedding off: %d acked, %d shed (%v/req)\n",
		openAcked, openShed, time.Duration(openNs).Round(time.Microsecond))
	fmt.Printf("  shedding on:  %d acked, %d shed 429+Retry-After (%v/req); %d/%d re-admitted once drained\n",
		onAcked, onShed, time.Duration(onNs).Round(time.Microsecond), shedRep.Resumed, onShed)
	fmt.Printf("  read-only: tripped after %d failed writes in %v; %d/%d mutations rejected; probes (%d attempts) recovered in %v\n",
		tripWrites, time.Duration(tripNs).Round(time.Microsecond), rejected, rejectProbes,
		roRep.Probes.Attempts, time.Duration(recoverNs).Round(time.Millisecond))
	fmt.Printf("  breaker: wedged endpoint hit %d/%d dispatches (opens=%d, rejected=%d, fast-fail %v), state=%s\n",
		wedgedHits.Load(), wedgedN, brRep.BreakerOpens, brRep.BreakerRejected,
		time.Duration(fastFailNs).Round(time.Microsecond), wedgedState)
	fmt.Printf("  healthy advance: %v baseline vs %v with the circuit open next door (%.2fx, bar <=3x), state=%s\n",
		time.Duration(baseNs).Round(time.Microsecond), time.Duration(isoNs).Round(time.Microsecond),
		latencyX, healthyState)
	fmt.Printf("  wrote BENCH_overload.json\n")
	return nil
}

// runIntegrity measures what the end-to-end journal integrity layer
// costs and delivers: durable-put throughput with CRC-32C record
// framing, and background-scrub throughput over a multi-segment
// dataset, with a flipped bit to prove the scrub actually detects rot.
// Results go to stdout and BENCH_integrity.json. The unframed format
// is no longer written, so its throughput and the framing overhead
// measured against it (target <10% — the fsync dominates) are carried
// forward unchanged from the previous BENCH_integrity.json.
func runIntegrity() error {
	const (
		writers    = 4
		putsPer    = 1500
		docBytes   = 256
		segmentMax = 256 << 10
	)
	type benchDoc struct {
		Title string `json:"title"`
		Rev   int    `json:"rev"`
	}
	payload := make([]byte, docBytes)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}

	// Durable-put throughput through the journal engine.
	durablePuts := func() (int64, error) {
		dir, err := os.MkdirTemp("", "gelee-bench-integrity-*")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		s, err := store.Open(dir, store.Options{Sync: true})
		if err != nil {
			return 0, err
		}
		repo := store.MustRepo[benchDoc](s, "docs")
		if err := s.Load(); err != nil {
			return 0, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < putsPer; i++ {
					if err := repo.Put(fmt.Sprintf("w%d-k%d", w, i),
						benchDoc{Title: string(payload), Rev: i}); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return 0, err
		}
		elapsed := time.Since(start).Nanoseconds()
		if err := s.Close(); err != nil {
			return 0, err
		}
		return elapsed, nil
	}
	framedNs, err := durablePuts()
	if err != nil {
		return err
	}
	totalPuts := writers * putsPer
	framedRate := float64(totalPuts) / (float64(framedNs) / 1e9)

	// Scrub throughput over a multi-segment dataset: the instance
	// journal accumulates sealed segments (no snapshot source wired, so
	// nothing folds), then ticks verify the whole generation.
	scrubDir, err := os.MkdirTemp("", "gelee-bench-scrub-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scrubDir)
	coll, err := store.OpenInstances(scrubDir, store.InstancesOptions{SegmentMaxBytes: segmentMax})
	if err != nil {
		return err
	}
	if err := coll.Replay(func(string, []byte) error { return nil }); err != nil {
		return err
	}
	rec := fmt.Sprintf(`{"op":"advance","pad":%q}`, payload[:128])
	for i := 0; i < 20000; i++ {
		if err := coll.Append(fmt.Sprintf("li-%d", i%64), []byte(rec)); err != nil {
			return err
		}
	}
	if err := coll.Seal(); err != nil {
		return err
	}
	segments := int(coll.Stats().SealedSegments)
	scrubStart := time.Now()
	var scrubBytes int64
	var scrubFiles int
	for {
		res := coll.Scrub(1 << 20) // 1 MiB ticks
		scrubBytes += res.Bytes
		scrubFiles += res.Files
		if res.Corrupt > 0 {
			return fmt.Errorf("clean dataset scrubbed corrupt: %+v", res)
		}
		if res.PassCompleted {
			break
		}
	}
	scrubNs := time.Since(scrubStart).Nanoseconds()
	scrubMBps := float64(scrubBytes) / 1e6 / (float64(scrubNs) / 1e9)

	// The behavioral claim: a flipped bit in a sealed segment is found.
	segPath := filepath.Join(scrubDir, "journal.000001.jsonl")
	raw, err := os.ReadFile(segPath)
	if err != nil {
		return err
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(segPath, raw, 0o644); err != nil {
		return err
	}
	detected := 0
	for {
		res := coll.Scrub(1 << 20)
		detected += res.Corrupt
		if res.PassCompleted {
			break
		}
	}
	if detected != 1 {
		return fmt.Errorf("scrub over flipped bit detected %d corruptions, want 1", detected)
	}
	if err := coll.Close(); err != nil {
		return err
	}

	report := struct {
		Experiment    string  `json:"experiment"`
		GOMAXPROCS    int     `json:"gomaxprocs"`
		Puts          int     `json:"durable_puts"`
		Writers       int     `json:"writers"`
		FramedNs      int64   `json:"framed_ns"`
		FramedPutsSec float64 `json:"framed_puts_per_sec"`
		// UnframedNs, UnframedPutsSec and OverheadPct are the unframed
		// format's figures, frozen from its last run and carried over
		// from the previous BENCH_integrity.json.
		UnframedNs      json.RawMessage `json:"unframed_ns,omitempty"`
		UnframedPutsSec json.RawMessage `json:"unframed_puts_per_sec,omitempty"`
		OverheadPct     json.RawMessage `json:"framing_overhead_pct,omitempty"`
		ScrubSegments   int             `json:"scrub_segments"`
		ScrubFiles      int             `json:"scrub_files"`
		ScrubBytes      int64           `json:"scrub_bytes"`
		ScrubNs         int64           `json:"scrub_ns"`
		ScrubMBPerSec   float64         `json:"scrub_mb_per_sec"`
		RotDetected     int             `json:"flipped_bit_detections"`
	}{
		Experiment:    "integrity",
		GOMAXPROCS:    gomaxprocs(),
		Puts:          totalPuts,
		Writers:       writers,
		FramedNs:      framedNs,
		FramedPutsSec: framedRate,
		ScrubSegments: segments,
		ScrubFiles:    scrubFiles,
		ScrubBytes:    scrubBytes,
		ScrubNs:       scrubNs,
		ScrubMBPerSec: scrubMBps,
		RotDetected:   detected,
	}
	if prev, err := os.ReadFile("BENCH_integrity.json"); err == nil {
		var old struct {
			UnframedNs      json.RawMessage `json:"unframed_ns"`
			UnframedPutsSec json.RawMessage `json:"unframed_puts_per_sec"`
			OverheadPct     json.RawMessage `json:"framing_overhead_pct"`
		}
		if json.Unmarshal(prev, &old) == nil {
			report.UnframedNs, report.UnframedPutsSec, report.OverheadPct = old.UnframedNs, old.UnframedPutsSec, old.OverheadPct
		}
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_integrity.json", append(data, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Printf("paper: a hosted service's journal is the system of record — it must detect its own decay\n")
	fmt.Printf("measured (%d durable puts x %d writers, fsync per batch):\n", totalPuts, writers)
	fmt.Printf("  framed (CRC-32C envelopes): %.0f puts/s (frozen unframed: %s puts/s, overhead %s%%; target <10%%)\n",
		framedRate, report.UnframedPutsSec, report.OverheadPct)
	fmt.Printf("  scrub: %d files / %.1f MB over %d sealed segments in %v (%.0f MB/s)\n",
		scrubFiles, float64(scrubBytes)/1e6, segments, time.Duration(scrubNs).Round(time.Millisecond), scrubMBps)
	fmt.Printf("  flipped bit in a sealed segment: detected %d time(s) by the next scrub pass\n", detected)
	fmt.Printf("  wrote BENCH_integrity.json\n")
	return nil
}
