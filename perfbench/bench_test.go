package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// refQuantile is the nearest-rank quantile by definition: the smallest
// sample with at least q of all samples at or below it, found by
// sorting and counting.
func refQuantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, x := range s {
		atOrBelow := 0
		for _, y := range s {
			if y <= x {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= q*float64(len(s))-1e-9 {
			return x
		}
	}
	return s[len(s)-1]
}

func TestQuantilesMatchSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Round(rng.ExpFloat64()*100) / 10 // rounded, so ties occur
		}
		orig := slices.Clone(xs)
		qs := []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1}
		got := quantiles(xs, qs...)
		for i, q := range qs {
			if want := refQuantile(xs, q); got[i] != want {
				t.Errorf("n=%d q=%v: got %v, want %v", n, q, got[i], want)
			}
		}
		if !slices.Equal(xs, orig) {
			t.Fatalf("n=%d: quantiles reordered its input", n)
		}
	}
}

func TestQuartileSpreadMatchesPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3.1, 1.2, 9.9, 4.4, 4.4, 7.0, 2.5, 8.8, 6.1}, (7.9 - 2.8) / 4.4},
		{[]float64{10, 20}, (22.5 - 7.5) / 15},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{id: 0, parent: -1, start: us(0), end: us(100)},   // request
		{id: 1, parent: 0, start: us(10), end: us(30)},    // child
		{id: 2, parent: 0, start: us(20), end: us(50)},    // child overlapping 1
		{id: 3, parent: 1, start: us(12), end: us(15)},    // grandchild
		{id: 4, parent: 0, start: us(90), end: us(120)},   // child sticking out
		{id: 5, parent: -1, start: us(200), end: us(210)}, // another root
	}
	// Root: 100 − |[10,50] ∪ [90,100]| = 100 − 40 − 10.
	want := []time.Duration{us(50), us(17), us(30), us(3), us(30), us(10)}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func smallWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	small := *w
	small.population = 300
	if small.models > 1 {
		small.models = 40
	}
	return &small
}

func genOps(w *workload, seed uint64, n int) [][]op {
	p := makePlan(w, seed)
	ids := make([]string, len(p.inst))
	for i := range ids {
		ids[i] = fmt.Sprintf("li-%06d", i+1)
	}
	g := newGen(w, seed, 0, p, ids)
	return [][]op{g.clientOps(0, n), g.clientOps(1, n)}
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, name := range []string{"advance", "cockpit", "project"} {
		w := smallWorkload(t, name)
		a := genOps(w, 7, 500)
		b := genOps(w, 7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different sequences", name)
		}
		if !reflect.DeepEqual(makePlan(w, 7), makePlan(w, 7)) {
			t.Errorf("%s: seed 7 drew two different populations", name)
		}
		c := genOps(w, 8, 500)
		if reflect.DeepEqual(a, c) && name != "project" {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", name)
		}
		for i, ops := range a {
			work := 0
			for _, o := range ops {
				if o.kind != opPing {
					work++
				}
			}
			if work < 500 {
				t.Errorf("%s client %d: %d workload ops, want at least 500", name, i, work)
			}
		}
	}
}

func TestClientsOwnDisjointInstances(t *testing.T) {
	ops := genOps(smallWorkload(t, "advance"), 3, 400)
	owner := make(map[string]int)
	for c, seq := range ops {
		for _, o := range seq {
			if o.kind != opAdvance {
				continue
			}
			if prev, ok := owner[o.path]; ok && prev != c {
				t.Fatalf("%s advanced by clients %d and %d", o.path, prev, c)
			}
			owner[o.path] = c
		}
	}
}

// TestRefusalsAndFailedChecksCount drives a client against a server
// that refuses every third request with 429 and answers one model get
// with the wrong model: each counts as failed, and every request still
// counts as attempted and keeps its latency sample.
func TestRefusalsAndFailedChecksCount(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"code":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		switch {
		case strings.HasSuffix(r.URL.Path, "/advance"):
			fmt.Fprint(w, `{"summary":{"current":"elaboration"}}`)
		case strings.HasPrefix(r.URL.Path, "/api/v1/models/"):
			fmt.Fprint(w, `{"URI":"urn:other"}`)
		default:
			fmt.Fprint(w, `{"gelee":"ok"}`)
		}
	}))
	defer srv.Close()
	adv := func(id string) op {
		return op{kind: opAdvance, method: "POST", path: "/api/v1/instances/" + id + "/advance",
			body: advanceBody("elaboration", ""), want: "elaboration", inst: id}
	}
	ops := []op{
		{kind: opPing, method: "GET", path: "/api/v1/ping"},
		adv("li-000001"),
		adv("li-000002"), // 429
		{kind: opModel, method: "GET", path: "/api/v1/models/urn:m", want: "urn:m", check: true}, // wrong model
		adv("li-000003"),
		{kind: opPing, method: "GET", path: "/api/v1/ping"}, // 429
	}
	c := newClient(srv.URL, 0, false)
	defer c.close()
	c.run(ops, true)
	if c.attempted != len(ops) || len(c.samples) != len(ops) {
		t.Fatalf("attempted %d with %d samples, want %d of each", c.attempted, len(c.samples), len(ops))
	}
	if c.failed != 3 {
		t.Fatalf("failed = %d, want 3 (two 429s, one wrong model): %v", c.failed, c.failures)
	}
	// Only acknowledged advances set the state a restart must show.
	if want := map[string]string{"li-000001": "elaboration", "li-000003": "elaboration"}; !reflect.DeepEqual(c.acked, want) {
		t.Fatalf("acked = %v, want %v", c.acked, want)
	}
}

func TestClassifyRoutes(t *testing.T) {
	for path, want := range map[string]opKind{
		"GET /api/v1/ping":                               opPing,
		"POST /api/v1/instances":                         opInstantiate,
		"POST /api/v1/instances/li-000001/advance":       opAdvance,
		"GET /api/v1/instances/li-000001/timeline":       opTimeline,
		"GET /api/v1/instances?after=3&limit=50":         opPage,
		"GET /api/v1/instances?model=urn:m&state=active": opFiltered,
		"GET /api/v1/monitor/summary":                    opSummary,
		"GET /api/v1/models/urn:m":                       opModel,
	} {
		method, target, _ := strings.Cut(path, " ")
		if got := classify(httptest.NewRequest(method, target, nil)); got != want {
			t.Errorf("classify(%s) = %v, want %v", path, got, want)
		}
	}
}

func TestSplitCountsKeepsPingsWithTheNextOp(t *testing.T) {
	ping := op{kind: opPing}
	adv := func(n int) op { return op{kind: opAdvance, path: fmt.Sprint(n)} }
	ops := []op{adv(1), ping, adv(2), adv(3), ping, adv(4), adv(5), ping}
	segs := splitCounts(ops, []int{2, 2})
	want := [][]op{{adv(1), ping, adv(2)}, {adv(3), ping, adv(4)}}
	if !reflect.DeepEqual(segs, want) {
		t.Fatalf("splitCounts = %v, want %v", segs, want)
	}
}

func TestZipfDrawsFollowTheLaw(t *testing.T) {
	const n, draws = 8, 400000
	for _, s := range []float64{0.6, 1.1} {
		z := newZipf(n, s)
		rng := rand.New(rand.NewPCG(3, 4))
		counts := make([]int, n)
		for range draws {
			counts[z.draw(rng)]++
		}
		var sum float64
		for k := range n {
			sum += math.Pow(float64(k+1), -s)
		}
		for k, c := range counts {
			want := math.Pow(float64(k+1), -s) / sum
			if got := float64(c) / draws; math.Abs(got-want) > 0.005 {
				t.Errorf("s=%v rank %d: frequency %.4f, want %.4f", s, k, got, want)
			}
		}
	}
}

func TestInterleavedRequestsStayOutOfTheWorkload(t *testing.T) {
	ops := genOps(smallWorkload(t, "advance"), 5, 200)[0]
	kinds := make(map[opKind]int)
	for i, o := range ops {
		kinds[o.kind]++
		if !o.kind.workload() && i%pingEvery != pingEvery-1 && i%pingEvery != pingEvery/2-1 {
			t.Fatalf("%s at position %d, off its place", o.kind, i)
		}
	}
	if kinds[opPing] == 0 || kinds[opRef] == 0 || kinds[opAdvance] != 200 {
		t.Fatalf("op kinds %v, want pings, reference round trips and 200 advances", kinds)
	}
	ref := op{kind: opRef}
	adv := func(n int) op { return op{kind: opAdvance, path: fmt.Sprint(n)} }
	segs := splitCounts([]op{adv(1), ref, adv(2), adv(3)}, []int{1, 2})
	if want := [][]op{{adv(1)}, {ref, adv(2), adv(3)}}; !reflect.DeepEqual(segs, want) {
		t.Fatalf("splitCounts = %v, want %v", segs, want)
	}
}

// TestSettingsMismatchIsFound reads the settings of two fake servers
// that differ in one reported value.
func TestSettingsMismatchIsFound(t *testing.T) {
	serve := func(cacheCap int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/api/v1/admin/store":
				fmt.Fprintf(w, `{"shards":16,"engine":{"engine":"journal","appends":%d},"reads":{"models":{"cache_cap":%d}}}`, cacheCap*7, cacheCap)
			case "/api/v1/admin/runtime":
				fmt.Fprint(w, `{"shards":16,"persistence":{"enabled":true}}`)
			case "/api/v1/admin/health":
				fmt.Fprint(w, `{"admission":{"watermark":512}}`)
			default:
				http.NotFound(w, r)
			}
		}))
	}
	a, b := serve(1024), serve(512)
	defer a.Close()
	defer b.Close()
	sa, err := readSettings(a.URL)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := readSettings(b.URL)
	if err != nil {
		t.Fatal(err)
	}
	if sa["store.reads.models.cache_cap"] != "1024" || sa["health.admission.watermark"] != "512" {
		t.Fatalf("settings %v", sa)
	}
	if d := sa.diff(sa); len(d) != 0 {
		t.Fatalf("identical settings differ: %v", d)
	}
	if d := sa.diff(sb); len(d) != 1 || !strings.HasPrefix(d[0], "store.reads.models.cache_cap") {
		t.Fatalf("diff = %v, want only the cache capacity (a counter is not a setting)", d)
	}
}
