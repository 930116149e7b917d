// Command perfbench is the repository benchmark. It prepares a seeded
// population in a fresh data directory, starts the real geleed on it
// over loopback, drives one of three fixed-work workloads from two
// closed-loop clients, checks every reply and, for the mutating
// workloads, that a SIGKILLed and restarted geleed kept every
// acknowledged move. Between the workload's ops the clients also time
// round trips to a reference server with no gelee code in it; the gated
// time metrics are expressed in those round trips, so that the host's
// changing speed cancels out. With -trace 1 it also hosts the same
// stack in this binary with spans around each layer's public surface
// and reports per-layer numbers instead.
//
// Usage (from the repository root, after perfbench/run.sh built it):
//
//	perfbench -workload advance|cockpit|project -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object
// {correct, attempted, failed, metrics}; the lines before it print
// every metric by name with its unit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// clients is the closed-loop client count: one per core of the 2-core
// host the benchmark is sized for.
const clients = 2

type config struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	geleed   string // geleed binary
	self     string // this binary, for the traced host and the reference server
	ref      string // base URL of the reference server
	work     string // scratch root for data directories and logs
}

func main() {
	modes := map[string]func() error{
		"serve-traced": func() error { return serveTraced(os.Args[2:]) },
		"serve-ref":    func() error { return serveRef(os.Args[2:]) },
		"spread":       func() error { return spreadReport(os.Stdin, os.Stdout) },
	}
	if len(os.Args) > 1 && modes[os.Args[1]] != nil {
		if err := modes[os.Args[1]](); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: advance, cockpit or project")
	seed := flag.Uint64("seed", 1, "seed of the population and the op sequences")
	seconds := flag.Int("seconds", 10, "scales the fixed op count: workload ops/s × seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build", "directory holding the geleed and perfbench binaries")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload advance|cockpit|project, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		geleed: filepath.Join(*bin, "geleed"),
		self:   filepath.Join(*bin, "perfbench"),
		work:   filepath.Join(*bin, "runs"),
	}

	// A signal stops every server before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		killAll()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()

	res, err := run(cfg)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res) // cannot fail: numbers and strings
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(cfg config) (*result, error) {
	for _, b := range []string{cfg.geleed, cfg.self} {
		if _, err := os.Stat(b); err != nil {
			return nil, fmt.Errorf("binary missing (build with perfbench/run.sh): %w", err)
		}
	}
	w := cfg.workload
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("env gomaxprocs=%d nproc=%d go=%s commit=%s clients=%d loop=closed\n",
		goruntime.GOMAXPROCS(0), goruntime.NumCPU(), goruntime.Version(), commit(), clients)
	fmt.Printf("flush policy: %s\n", flushPolicy)
	fmt.Printf("workload: population=%d models=%d ops=%d (+1 ping and 1 reference round trip per %d)\n  why: %s\n  mix: %s\n",
		w.population, w.models, w.opsPerSecond*cfg.seconds, pingEvery-2, w.why, w.mix)

	ref, err := startRef(cfg.self, filepath.Join(dir, "ref.log"))
	if err != nil {
		return nil, err
	}
	defer ref.kill()
	cfg.ref = ref.base

	p := makePlan(w, cfg.seed)
	prepared := filepath.Join(dir, "prepared")
	t0 := time.Now()
	ids, err := prepare(prepared, p)
	if err != nil {
		return nil, err
	}
	fmt.Printf("prep: %d instances over %d models in %.2fs (untimed)\n", len(ids), len(p.modelURIs), time.Since(t0).Seconds())
	n := w.opsPerSecond * cfg.seconds / clients / runParts
	parts := make([]part, runParts)
	for k := range parts {
		parts[k] = makePart(newGen(w, cfg.seed, k, p, ids), n)
	}
	var e *e2e
	var tp *tracedPart
	steps := []func() error{func() (err error) {
		e, err = endToEnd(cfg, prepared, filepath.Join(dir, "data"), parts)
		return err
	}}
	if cfg.trace {
		steps = append(steps, func() (err error) {
			tp, err = runTraced(cfg, prepared, filepath.Join(dir, "traced"), parts[0])
			return err
		})
		// The traced part and the untraced run take turns going first,
		// by seed, so a drift of the host's speed does not always favour
		// the same side of trace.overhead_ratio.
		if cfg.seed%2 == 1 {
			steps[0], steps[1] = steps[1], steps[0]
		}
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		return e.result(), nil
	}
	return tracedResult(tp, e)
}

// runParts is how many parts a run has. Each part restores the prepared
// data directory, starts geleed on it (setup_s is the median of these
// starts) and drives its own share of the run's ops after a warm-up.
// The time metrics are medians over the parts: one part's figures move
// by a tenth or more with the server lifetime and with the host's
// speed during its few seconds, and the median keeps a part that ran
// on a slow host from moving the run. Each lifetime's appends stay
// below one 64 MiB journal segment, so no rotation or fold lands
// inside a measurement.
const runParts = 6

// part is one part's op sequences per client: warm-up, then measured.
type part struct {
	warm, measured [][]op
}

// makePart generates each client's warm-up and n measured workload ops.
func makePart(g *gen, n int) part {
	warm := max(n/20, 20)
	var pt part
	for c := range clients {
		segs := splitCounts(g.clientOps(c, warm+n), []int{warm, n})
		pt.warm = append(pt.warm, segs[0])
		pt.measured = append(pt.measured, segs[1])
	}
	return pt
}

// commit names the source revision when the checkout is a git
// repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown(no git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// phaseStats pools what the clients observed over the measured parts.
type phaseStats struct {
	ops       int           // workload ops measured (pings and reference round trips excluded)
	wall      time.Duration // summed over the parts
	lat       []float64     // per workload op, ms
	meanLat   float64       // ms
	pingP50us float64
	refP50us  float64 // reference round trip
	attempted int
	failed    int
	failures  []string
	created   int // instances the clients created in the last part
}

// partStats is what a part measured beside the clients' samples.
type partStats struct {
	wall time.Duration
	ops  int           // measured workload ops
	p50  float64       // ms, over the measured workload ops
	p99  float64       // ms
	ref  float64       // ms, p50 of the reference round trips
	cpu  time.Duration // the server's CPU time over the measured ops
}

// runPart runs one part against the server at base: the clients'
// warm-up ops, then between, then the measured ops.
func runPart(cs []*client, base string, warmOps, measOps [][]op, between func() error) (partStats, error) {
	for _, c := range cs {
		c.close() // idle connections to an earlier server
		c.base, c.session, c.created, c.acked = base, "", nil, make(map[string]string)
	}
	runClients(cs, warmOps, false)
	if err := between(); err != nil {
		return partStats{}, err
	}
	from := make([]int, len(cs))
	for i, c := range cs {
		from[i] = len(c.samples)
	}
	st := partStats{wall: runClients(cs, measOps, true)}
	var lat, refs []float64
	for i, c := range cs {
		for _, s := range c.samples[from[i]:] {
			ms := float64(s.lat) / float64(time.Millisecond)
			if s.kind.workload() {
				lat = append(lat, ms)
			} else if s.kind == opRef {
				refs = append(refs, ms)
			}
		}
	}
	q := quantiles(lat, 0.5, 0.99)
	st.ops, st.p50, st.p99, st.ref = len(lat), q[0], q[1], quantile(refs, 0.5)
	return st, nil
}

// summarize pools what the clients observed over all measured parts.
func summarize(cs []*client, parts []partStats) (*phaseStats, error) {
	ps := &phaseStats{}
	for _, p := range parts {
		ps.wall += p.wall
	}
	var pings, refs []float64
	var sum float64
	for _, c := range cs {
		for _, s := range c.samples {
			ms := float64(s.lat) / float64(time.Millisecond)
			switch {
			case s.kind == opPing:
				pings = append(pings, ms*1000)
			case s.kind == opRef:
				refs = append(refs, ms*1000)
			default:
				ps.lat = append(ps.lat, ms)
				sum += ms
			}
		}
		ps.attempted += c.attempted
		ps.failed += c.failed
		ps.failures = append(ps.failures, c.failures...)
		ps.created += len(c.created)
	}
	ps.ops = len(ps.lat)
	if ps.ops == 0 {
		return nil, errors.New("no measured ops")
	}
	ps.meanLat = sum / float64(ps.ops)
	ps.pingP50us = quantile(pings, 0.5)
	ps.refP50us = quantile(refs, 0.5)
	return ps, nil
}

func newClients(ref string, population int, growing bool) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient("", population, growing)
		cs[i].ref = ref
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// e2e is the end-to-end outcome of one run against geleed.
type e2e struct {
	w          *workload
	setups     []float64 // seconds from exec to ready, per start
	rss        []float64 // bytes right after each start
	ps         *phaseStats
	parts      []partStats // per part, in run order
	settings   settings    // what geleed reported after its first start
	diskGrowth int64       // over the measured ops
	after      int64       // data directory size after the last part
	durability durability
}

type durability struct {
	checked, mismatched int
	failures            []string
}

// startGeleed execs geleed on data and waits until it serves the whole
// population, returning its setup time and resident set size.
func startGeleed(cfg config, data string, population int) (*server, time.Duration, int64, error) {
	started := time.Now()
	s, err := startServer(cfg.geleed, []string{"-data", data}, filepath.Join(filepath.Dir(data), "geleed.log"))
	if err != nil {
		return nil, 0, 0, err
	}
	d, err := s.waitReady(started, population)
	if err != nil {
		s.kill()
		return nil, 0, 0, fmt.Errorf("geleed start: %w", err)
	}
	rss, err := s.rssBytes()
	if err != nil {
		s.kill()
		return nil, 0, 0, err
	}
	return s, d, rss, nil
}

// endToEnd runs each part against geleed on data restored from
// prepared; after the last part, for the mutating workloads, it
// SIGKILLs geleed, restarts it and checks every instance the part
// touched.
func endToEnd(cfg config, prepared, data string, parts []part) (*e2e, error) {
	w := cfg.workload
	e := &e2e{w: w}
	cs := newClients(cfg.ref, w.population, w.name == "project")
	defer closeClients(cs)
	for _, pt := range parts {
		if err := restore(prepared, data); err != nil {
			return nil, err
		}
		s, d, rss, err := startGeleed(cfg, data, w.population)
		if err != nil {
			return nil, err
		}
		e.setups = append(e.setups, d.Seconds())
		e.rss = append(e.rss, float64(rss))
		if e.settings == nil {
			if e.settings, err = readSettings(s.base); err != nil {
				s.kill()
				return nil, err
			}
		}
		var cpu0 time.Duration
		var disk0 int64
		st, err := runPart(cs, s.base, pt.warm, pt.measured, func() (err error) {
			if cpu0, err = s.cpuTime(); err != nil {
				return err
			}
			disk0, err = dirBytes(data)
			return err
		})
		if err == nil {
			var cpu1 time.Duration
			if cpu1, err = s.cpuTime(); err == nil {
				st.cpu = cpu1 - cpu0
				e.after, err = dirBytes(data)
				e.diskGrowth += e.after - disk0
			}
		}
		s.kill()
		if err != nil {
			return nil, err
		}
		e.parts = append(e.parts, st)
	}
	ps, err := summarize(cs, e.parts)
	if err != nil {
		return nil, err
	}
	e.ps = ps
	if w.name == "cockpit" { // read-only: nothing to lose
		return e, nil
	}
	s, _, _, err := startGeleed(cfg, data, w.population+ps.created)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	defer s.kill()
	e.durability, err = checkDurable(s.base, cs)
	return e, err
}

// restore replaces data with a fresh copy of prepared.
func restore(prepared, data string) error {
	if err := os.RemoveAll(data); err != nil {
		return err
	}
	if err := copyDir(prepared, data); err != nil {
		return fmt.Errorf("restore data dir: %w", err)
	}
	return nil
}

// checkDurable pages through the restarted population and checks that
// every instance the last part created exists and every instance it
// moved sits at the target of its last acknowledged advance.
func checkDurable(base string, cs []*client) (durability, error) {
	var d durability
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	got := make(map[string]pageItem)
	for after := int64(0); ; {
		var p page
		if err := getJSON(hc, fmt.Sprintf("%s/api/v1/instances?after=%d&limit=1000", base, after), &p); err != nil {
			return d, err
		}
		for _, it := range p.Items {
			got[it.ID] = it
		}
		if p.NextAfter == 0 {
			break
		}
		after = p.NextAfter
	}
	want := make(map[string]string)
	for _, c := range cs {
		for _, id := range c.created {
			want[id] = "" // created and not moved: the token is still at BEGIN
		}
		for id, phase := range c.acked {
			want[id] = phase
		}
	}
	for id, phase := range want {
		d.checked++
		if it, ok := got[id]; !ok || it.Current != phase {
			d.mismatched++
			if len(d.failures) < 5 {
				d.failures = append(d.failures, fmt.Sprintf("after restart %s is at %q, last acknowledged %q", id, it.Current, phase))
			}
		}
	}
	return d, nil
}

func (e *e2e) failed() int { return e.ps.failed + e.durability.mismatched }

func (e *e2e) attempted() int { return e.ps.attempted + e.durability.checked }

// partSeries holds, per part, the figures the time metrics are medians
// of: raw, and in reference round trips of the same part.
type partSeries struct {
	opsPerS, p50ms, cpuUs, refMs          []float64
	throughputRel, p50Rel, p99Rel, cpuRel []float64
}

func (e *e2e) perPart() partSeries {
	var s partSeries
	for _, p := range e.parts {
		ops := float64(p.ops) / p.wall.Seconds()
		cpu := float64(p.cpu) / float64(time.Microsecond) / float64(p.ops)
		s.opsPerS = append(s.opsPerS, ops)
		s.p50ms = append(s.p50ms, p.p50)
		s.cpuUs = append(s.cpuUs, cpu)
		s.refMs = append(s.refMs, p.ref)
		s.throughputRel = append(s.throughputRel, ops*p.ref/1000)
		s.p50Rel = append(s.p50Rel, p.p50/p.ref)
		s.p99Rel = append(s.p99Rel, p.p99/p.ref)
		s.cpuRel = append(s.cpuRel, cpu/(p.ref*1000))
	}
	return s
}

// metrics are the gated end-to-end metrics. The host this benchmark was
// defined on changes speed by a fifth within seconds, and ops/s,
// latency and CPU time per op all follow it, so those three are gated
// in reference round trips: each part's figure divided by the median
// round trip to the reference server measured between the same part's
// ops. Their raw values are printed beside them.
func (e *e2e) metrics() map[string]metric {
	s := e.perPart()
	return map[string]metric{
		"setup_s":                 {median(e.setups), "s"},
		"throughput_rel":          {median(s.throughputRel), "1/ref"},
		"p50_rel":                 {median(s.p50Rel), "ref"},
		"cpu_per_op_rel":          {median(s.cpuRel), "ref"},
		"rss_bytes_per_instance":  {median(e.rss) / float64(e.w.population), "B"},
		"disk_bytes_per_instance": {float64(e.after) / float64(e.w.population+e.ps.created), "B"},
	}
}

// printed are the end-to-end figures reported but not gated.
func (e *e2e) printed() map[string]metric {
	s, ps := e.perPart(), e.ps
	return map[string]metric{
		"ops_per_s":           {median(s.opsPerS), "1/s"},
		"p50_ms":              {median(s.p50ms), "ms"},
		"p99_ms":              {quantile(ps.lat, 0.99), "ms"},
		"p99_rel":             {median(s.p99Rel), "ref"},
		"cpu_us_per_op":       {median(s.cpuUs), "us"},
		"disk_bytes_per_op":   {float64(e.diskGrowth) / float64(ps.ops), "B"},
		"failed_ratio":        {float64(e.failed()) / float64(e.attempted()), "1"},
		"harness.ping_p50_us": {ps.pingP50us, "us"},
		"harness.ref_p50_us":  {ps.refP50us, "us"},
	}
}

// printMetrics prints metrics sorted by name, one per line.
func printMetrics(title string, m map[string]metric) {
	fmt.Println(title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-40s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func (e *e2e) report() {
	ps := e.ps
	printMetrics("end-to-end, gated (tracing off, real geleed over loopback):", e.metrics())
	printMetrics("end-to-end, printed only:", e.printed())
	fmt.Printf("  samples: %d ops in %.2fs over %d parts (%d failed of %d attempted); setups %v s; rss %v MB\n",
		ps.ops, ps.wall.Seconds(), runParts, e.failed(), e.attempted(), roundAll(e.setups, 4), roundAll(scale(e.rss, 1e-6), 1))
	s := e.perPart()
	fmt.Printf("  per part: ops/s %v; p50 ms %v; cpu us/op %v; reference round trip ms %v\n",
		roundAll(s.opsPerS, 0), roundAll(s.p50ms, 4), roundAll(s.cpuUs, 1), roundAll(s.refMs, 4))
	keys := make([]string, 0, len(e.settings))
	for k := range e.settings {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	fmt.Print("  geleed settings:")
	for _, k := range keys {
		fmt.Printf(" %s=%s", k, e.settings[k])
	}
	fmt.Println()
	if e.w.name != "cockpit" {
		fmt.Printf("  durability: %d instances checked after SIGKILL + restart, %d mismatched\n", e.durability.checked, e.durability.mismatched)
	}
	for _, f := range append(slices.Clone(ps.failures), e.durability.failures...) {
		fmt.Println("  FAIL", f)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

func (e *e2e) result() *result {
	e.report()
	return &result{
		Correct:   e.failed() == 0,
		Attempted: e.attempted(),
		Failed:    e.failed(),
		Metrics:   e.metrics(),
	}
}
