package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"slices"
	"sort"
	"strconv"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/plugin"
	"github.com/liquidpub/gelee/internal/scenario"
)

// opKind classifies one request of a workload.
type opKind uint8

const (
	opPing opKind = iota
	opRef         // a reference round trip, to the reference server
	opAdvance
	opInstantiate
	opTimeline
	opPage
	opFiltered
	opSummary
	opModel
	numOpKinds
)

var opNames = [numOpKinds]string{"ping", "ref", "advance", "instantiate", "timeline", "page", "filtered", "summary", "model"}

func (k opKind) String() string { return opNames[k] }

// workload reports whether k is an op of the workload, not one of the
// interleaved pings and reference round trips.
func (k opKind) workload() bool { return k != opPing && k != opRef }

// sessionID is the placeholder a project op's path carries for the
// instance its session created; the client substitutes the id the
// instantiate reply returned.
const sessionID = "{id}"

// pageLimit is the page size of every listing the workloads read.
const pageLimit = 50

// pingEvery spaces the interleaved requests: in every pingEvery
// requests of a sequence, one is a ping of the server under test and
// one a reference round trip.
const pingEvery = 50

// op is one request: its route and body are fixed when the sequence is
// generated, so a run sends exactly the generated bytes.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	// want is what the reply must show: the target phase of an advance,
	// the model URI of a model get or filtered page.
	want string
	// inst is the instance an advance moves (sessionID in a project
	// session).
	inst string
	// after is the cursor of a page (its items must all lie beyond it).
	after int64
	// check marks a read whose reply is decoded and verified in full;
	// the others are checked for status only.
	check bool
}

// workload is one fixed traffic mix over a prepared population.
type workload struct {
	name string
	why  string
	// population is the instance count prepared before the run; models
	// the count of distinct lifecycle models they are spread over.
	population, models int
	// zipfModels spreads instances over models by a Zipf law instead of
	// putting them all on model 0.
	zipfModels bool
	// opsPerSecond sets the run's fixed operation count: opsPerSecond ×
	// --seconds workload ops, split evenly between the clients. It is
	// sized so a run lasts about --seconds on a 2-core host.
	opsPerSecond int
	mix          string
	gen          func(g *gen, client, n int) []op
}

var workloads = []*workload{
	{
		name:         "advance",
		why:          "durable mutation path: HTTP decode, admission, runtime locks and apply, instance-journal encode and append, execution-log mirror; read layers idle",
		population:   10000,
		models:       1,
		opsPerSecond: 4500,
		mix:          "100% POST /instances/{id}/advance to a uniform random instance of the client's half; half the targets follow a suggested transition, half are uniform over all phases",
		gen:          genAdvance,
	},
	{
		name:         "cockpit",
		why:          "read layers: population-index seek and merge, filter pushdown, monitor counters, model gets over more of 2048 models than the 1024-entry read cache holds, page JSON encode; journals idle",
		population:   10000,
		models:       2048,
		zipfModels:   true,
		opsPerSecond: 1600,
		mix:          "per shuffled block of 100: 20 GET /instances?after=<uniform>&limit=50, 18 GET /instances?model=<zipf 1.1>&state=active&limit=50, 2 GET /monitor/summary, 60 GET /models/{zipf 0.6 uri}",
		gen:          genCockpit,
	},
	{
		name:         "project",
		why:          "the paper's deliverable flow: instantiate on one hot model, six annotated advances to accepted, timeline and first-page reads, so writes and reads interleave",
		population:   10000,
		models:       1,
		opsPerSecond: 3900,
		mix:          "per session: POST /instances (hot model), 6x POST /instances/{id}/advance along the happy path with an annotation, GET /instances/{id}/timeline?limit=50, GET /instances?limit=50",
		gen:          genProject,
	},
}

func workloadByName(name string) (*workload, bool) {
	i := slices.IndexFunc(workloads, func(w *workload) bool { return w.name == name })
	if i < 0 {
		return nil, false
	}
	return workloads[i], true
}

// plan is a population drawn from a seed: which model each instance
// runs and the phases prep walks it through.
type plan struct {
	modelURIs []string
	inst      []plannedInst
}

type plannedInst struct {
	model int
	steps []string
}

// phaseGraph is the lifecycle every workload model shares: the
// paper's Fig. 1 quality plan.
type phaseGraph struct {
	phases    []string
	suggested map[string][]string // from (core.Begin for a fresh token) → suggested targets
}

func newPhaseGraph(m *core.Model) phaseGraph {
	g := phaseGraph{phases: m.PhaseIDs(), suggested: make(map[string][]string)}
	for _, from := range append([]string{core.Begin}, g.phases...) {
		for _, to := range g.phases {
			if m.Suggests(from, to) {
				g.suggested[from] = append(g.suggested[from], to)
			}
		}
	}
	return g
}

// next draws a move from cur: a suggested transition half the time
// (when one exists), otherwise a uniform pick over all phases — so
// both suggested moves and deviations occur.
func (g phaseGraph) next(rng *rand.Rand, cur string) string {
	if cur == "" {
		cur = core.Begin
	}
	if s := g.suggested[cur]; len(s) > 0 && rng.IntN(2) == 0 {
		return s[rng.IntN(len(s))]
	}
	return g.phases[rng.IntN(len(g.phases))]
}

var graph = newPhaseGraph(scenario.QualityPlan())

// modelFor returns the lifecycle model the population's i-th model URI
// names: the quality plan under its own URI.
func modelFor(uri string, i int) *core.Model {
	m := scenario.QualityPlan()
	m.URI = uri
	m.Name = fmt.Sprintf("%s #%d", m.Name, i)
	return m
}

// instanceBindings are the instantiation-time parameter values every
// workload instance carries, as geleed's demo seed supplies them.
var instanceBindings = map[string]map[string]string{
	plugin.ActionNotifyReviewers: {"reviewers": "reviewer@bench.example"},
	plugin.ActionPostOnWebSite:   {"site": "bench.example"},
}

// resourceType is unmanaged: no plug-in serves it, so phase actions
// fail at dispatch preparation and make no outcalls.
const resourceType = "webpage"

func seededRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// Zipf exponents. The population is spread over the models with
// populationZipf, and cockpit's filtered pages pick models the same
// way. Cockpit's model gets use the flatter modelGetZipf: each part
// starts a fresh process, and with populationZipf its ~2.4k model gets
// would touch about 600 of the 2048 models, so the 1024-entry read
// cache would never evict; at 0.6 they touch about 1150, more than the
// cache holds.
const (
	populationZipf = 1.1
	modelGetZipf   = 0.6
)

// zipf draws ranks 0..n-1 with P(k) proportional to (k+1)^-s, by
// searching a table of the cumulative weights; unlike rand.Zipf it
// takes exponents s <= 1.
type zipf []float64

func newZipf(n int, s float64) zipf {
	z := make(zipf, n)
	var sum float64
	for k := range z {
		sum += math.Pow(float64(k+1), -s)
		z[k] = sum
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z, rng.Float64()*z[len(z)-1])
}

// makePlan draws the population of w from seed.
func makePlan(w *workload, seed uint64) *plan {
	rng := seededRand(seed, w.name+"/population")
	p := &plan{modelURIs: make([]string, w.models), inst: make([]plannedInst, w.population)}
	for i := range p.modelURIs {
		p.modelURIs[i] = fmt.Sprintf("urn:perfbench:%s:model-%04d", w.name, i)
	}
	z := newZipf(w.models, populationZipf)
	for i := range p.inst {
		in := plannedInst{}
		if w.zipfModels {
			in.model = z.draw(rng)
		}
		cur := ""
		for range rng.IntN(4) {
			cur = graph.next(rng, cur)
			in.steps = append(in.steps, cur)
		}
		p.inst[i] = in
	}
	return p
}

// gen generates a workload's op sequences from the prepared state.
type gen struct {
	w    *workload
	seed uint64
	part int // which part of the run the sequences are for
	plan *plan
	ids  []string // instance ids in creation order, as prep returned them
}

func newGen(w *workload, seed uint64, part int, p *plan, ids []string) *gen {
	return &gen{w: w, seed: seed, part: part, plan: p, ids: ids}
}

// clientOps returns client's sequence of n workload ops plus the
// interleaved pings. Clients own disjoint instances, so each
// instance's last acknowledged target is well defined.
func (g *gen) clientOps(client, n int) []op {
	return g.w.gen(g, client, n)
}

func (g *gen) rng(client int) *rand.Rand {
	return seededRand(g.seed, fmt.Sprintf("%s/ops/%d/%d", g.w.name, g.part, client))
}

// withPings appends op to ops, preceded by a ping or a reference round
// trip where the sequence reaches their places among every pingEvery
// requests.
func withPings(ops []op, o op) []op {
	switch len(ops) % pingEvery {
	case pingEvery - 1:
		ops = append(ops, op{kind: opPing, method: "GET", path: "/api/v1/ping"})
	case pingEvery/2 - 1:
		ops = append(ops, op{kind: opRef, method: "GET", path: refPath})
	}
	return append(ops, o)
}

func advanceBody(to, annotation string) []byte {
	b, _ := json.Marshal(struct {
		To         string `json:"to"`
		Annotation string `json:"annotation,omitempty"`
	}{to, annotation}) // cannot fail: two strings
	return b
}

func genAdvance(g *gen, client, n int) []op {
	rng := g.rng(client)
	var mine []int
	cur := make(map[int]string)
	for i := client; i < len(g.ids); i += 2 {
		mine = append(mine, i)
		if st := g.plan.inst[i].steps; len(st) > 0 {
			cur[i] = st[len(st)-1]
		}
	}
	ops := make([]op, 0, n+n/pingEvery+1)
	for range n {
		i := mine[rng.IntN(len(mine))]
		to := graph.next(rng, cur[i])
		cur[i] = to
		ops = withPings(ops, op{kind: opAdvance, method: "POST", inst: g.ids[i],
			path: "/api/v1/instances/" + g.ids[i] + "/advance", body: advanceBody(to, ""), want: to})
	}
	return ops
}

// cockpitBlock is the cockpit mix as exact counts per 100 ops. Each
// block of 100 is shuffled, so every run reads the same number of each
// view and only their order depends on the seed.
var cockpitBlock = []struct {
	kind  opKind
	count int
}{{opPage, 20}, {opFiltered, 18}, {opSummary, 2}, {opModel, 60}}

func genCockpit(g *gen, client, n int) []op {
	rng := g.rng(client)
	filtered := newZipf(len(g.plan.modelURIs), populationZipf)
	gets := newZipf(len(g.plan.modelURIs), modelGetZipf)
	var block []opKind
	for _, b := range cockpitBlock {
		for range b.count {
			block = append(block, b.kind)
		}
	}
	ops := make([]op, 0, n+n/pingEvery+1)
	for k := range n {
		if k%len(block) == 0 {
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		var o op
		check := k%8 == 0
		switch block[k%len(block)] {
		case opPage:
			after := rng.Int64N(int64(len(g.ids)))
			o = op{kind: opPage, method: "GET", after: after, check: check,
				path: "/api/v1/instances?after=" + strconv.FormatInt(after, 10) + "&limit=" + strconv.Itoa(pageLimit)}
		case opFiltered:
			m := g.plan.modelURIs[filtered.draw(rng)]
			o = op{kind: opFiltered, method: "GET", want: m, check: check,
				path: "/api/v1/instances?model=" + url.QueryEscape(m) + "&state=active&limit=" + strconv.Itoa(pageLimit)}
		case opSummary:
			o = op{kind: opSummary, method: "GET", path: "/api/v1/monitor/summary", check: check}
		default:
			m := g.plan.modelURIs[gets.draw(rng)]
			o = op{kind: opModel, method: "GET", want: m, check: check, path: "/api/v1/models/" + url.PathEscape(m)}
		}
		ops = withPings(ops, o)
	}
	return ops
}

// projectSession is the op count of one project session.
const projectSession = 9

func genProject(g *gen, client, n int) []op {
	hot := g.plan.modelURIs[0]
	ops := make([]op, 0, n+n/pingEvery+projectSession)
	for s := 0; s*projectSession < n; s++ {
		body, _ := json.Marshal(map[string]any{ // cannot fail: strings and maps of strings
			"model_uri": hot,
			"resource":  map[string]string{"uri": fmt.Sprintf("http://bench.example/%d/p%d/c%d/s%d", g.seed, g.part, client, s), "type": resourceType},
			"owner":     fmt.Sprintf("owner-%d", client),
			"bindings":  instanceBindings,
		})
		ops = withPings(ops, op{kind: opInstantiate, method: "POST", path: "/api/v1/instances", body: body, want: hot})
		for step, to := range scenario.HappyPath {
			ops = withPings(ops, op{kind: opAdvance, method: "POST", want: to, inst: sessionID,
				path: "/api/v1/instances/" + sessionID + "/advance",
				body: advanceBody(to, fmt.Sprintf("session %d step %d", s, step+1))})
		}
		ops = withPings(ops, op{kind: opTimeline, method: "GET", check: true,
			path: "/api/v1/instances/" + sessionID + "/timeline?limit=" + strconv.Itoa(pageLimit)})
		ops = withPings(ops, op{kind: opPage, method: "GET", check: s%8 == 0,
			path: "/api/v1/instances?limit=" + strconv.Itoa(pageLimit)})
	}
	return ops
}
