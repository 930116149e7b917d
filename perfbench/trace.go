package main

// The traced run hosts geleed's stack (gelee.System behind httpapi) in
// this binary and records spans around the calls into each layer's
// public surface: the HTTP handler, the httpapi.Backend methods the
// workloads reach, and the instance journal behind
// gelee.Options.Resilience.WrapJournal. Spans inside the program are
// not recorded; work a handler does on a value a Backend method
// returned (the monitor's Summarize on Backend.Monitor(), the timeline
// page) counts as httpapi self time.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/httpapi"
	"github.com/liquidpub/gelee/internal/resilience"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
)

// spanKind names the layer call a span times.
type spanKind uint8

const (
	kHTTP        spanKind = iota // the httpapi handler, root of a request
	kAdmit                       // Backend.AdmitMutation
	kAdvance                     // Backend.AdvanceSummary
	kInstantiate                 // Backend.Instantiate
	kPage                        // Backend.QuerySummaries, no filter
	kQuery                       // Backend.QuerySummaries, filtered
	kModelView                   // Backend.ModelView
	kJournal                     // runtime.Journal.Record
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"http", "admit", "advance", "instantiate", "page", "query", "model_view", "journal"}

// conn is the tracing state of one client connection. A keep-alive
// connection serves one request at a time, so its Backend calls are
// children of its one open handler span.
type conn struct {
	t   *tracer
	api http.Handler

	mu    sync.Mutex
	spans []span
	ops   []opKind // per span: the request's op class (handler spans)
	bytes []int64  // per span: response bytes (handler spans)
	cur   int      // id of the innermost open span, -1 if none
}

func (c *conn) begin(kind spanKind, op opKind) int {
	now := time.Since(c.t.epoch)
	c.mu.Lock()
	defer c.mu.Unlock()
	id := len(c.spans)
	c.spans = append(c.spans, span{id: id, parent: c.cur, kind: kind, start: now})
	c.ops = append(c.ops, op)
	c.bytes = append(c.bytes, 0)
	c.cur = id
	return id
}

func (c *conn) end(id int, respBytes int64) {
	now := time.Since(c.t.epoch)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans[id].end = now
	c.bytes[id] = respBytes
	c.cur = c.spans[id].parent
}

// tracer owns the spans of every connection, plus the journal records
// no request caused.
type tracer struct {
	sys   *gelee.System
	epoch time.Time

	mu       sync.Mutex
	conns    []*conn
	inflight map[string]*conn // instance id / resource URI of a running mutation → its connection
	bgCount  int64            // unlinked journal records
	bgTime   time.Duration
	base     counters
	start    startInfo // how the host came up; set before serving

	shed atomic.Int64
}

type connKey struct{}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: make(map[string]*conn)}
}

func (t *tracer) connContext(ctx context.Context, _ net.Conn) context.Context {
	c := &conn{t: t, cur: -1}
	c.api = httpapi.New(&tracedBackend{System: t.sys, c: c}, httpapi.Options{})
	t.mu.Lock()
	t.conns = append(t.conns, c)
	t.mu.Unlock()
	return context.WithValue(ctx, connKey{}, c)
}

// classify names the op class of a request by its route.
func classify(r *http.Request) opKind {
	p := r.URL.Path
	switch {
	case p == "/api/v1/ping":
		return opPing
	case r.Method == http.MethodPost && p == "/api/v1/instances":
		return opInstantiate
	case strings.HasSuffix(p, "/advance"):
		return opAdvance
	case strings.HasSuffix(p, "/timeline"):
		return opTimeline
	case p == "/api/v1/instances" && r.URL.Query().Get("model") != "":
		return opFiltered
	case p == "/api/v1/instances":
		return opPage
	case p == "/api/v1/monitor/summary":
		return opSummary
	}
	return opModel
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (t *tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/perfbench/trace/reset":
		t.reset()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("{}\n")) // a failed write shows as a client error
		return
	case "/perfbench/trace/report":
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(t.report()) // a failed write shows as a client error
		return
	}
	c := r.Context().Value(connKey{}).(*conn)
	id := c.begin(kHTTP, classify(r))
	cw := &countingWriter{ResponseWriter: w}
	c.api.ServeHTTP(cw, r)
	c.end(id, cw.n)
}

// wrapJournal is the gelee.Options.Resilience.WrapJournal hook: it
// times every instance-journal record and links the ones a traced
// mutation caused to that mutation's span.
func (t *tracer) wrapJournal(inner runtime.Journal) runtime.Journal {
	return runtime.JournalFunc(func(rec *runtime.JournalRecord) error {
		key := rec.Instance
		if rec.Op == runtime.RecInstantiate && rec.Resource != nil {
			key = rec.Resource.URI
		}
		var c *conn
		if rec.Op == runtime.RecAdvance || rec.Op == runtime.RecInstantiate {
			t.mu.Lock()
			c = t.inflight[key]
			t.mu.Unlock()
		}
		if c == nil {
			start := time.Now()
			err := inner.Record(rec)
			d := time.Since(start)
			t.mu.Lock()
			t.bgCount++
			t.bgTime += d
			t.mu.Unlock()
			return err
		}
		id := c.begin(kJournal, 0)
		err := inner.Record(rec)
		c.end(id, 0)
		return err
	})
}

// tracedBackend is gelee.System with spans around the Backend methods
// the workloads call.
type tracedBackend struct {
	*gelee.System
	c *conn
}

func (b *tracedBackend) mutation(key string) func() {
	t := b.c.t
	t.mu.Lock()
	t.inflight[key] = b.c
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.inflight, key)
		t.mu.Unlock()
	}
}

func (b *tracedBackend) AdmitMutation() error {
	id := b.c.begin(kAdmit, 0)
	err := b.System.AdmitMutation()
	b.c.end(id, 0)
	if errors.Is(err, resilience.ErrShed) {
		b.c.t.shed.Add(1)
	}
	return err
}

func (b *tracedBackend) AdvanceSummary(instID, toPhase, actor string, opts runtime.AdvanceOptions) (runtime.MoveResult, error) {
	defer b.mutation(instID)()
	id := b.c.begin(kAdvance, 0)
	defer b.c.end(id, 0)
	return b.System.AdvanceSummary(instID, toPhase, actor, opts)
}

func (b *tracedBackend) Instantiate(modelURI string, ref resource.Ref, owner string, bindings map[string]map[string]string) (runtime.Snapshot, error) {
	defer b.mutation(ref.URI)()
	id := b.c.begin(kInstantiate, 0)
	defer b.c.end(id, 0)
	return b.System.Instantiate(modelURI, ref, owner, bindings)
}

func (b *tracedBackend) QuerySummaries(f runtime.Filter, after int64, limit int) runtime.SummaryPage {
	kind := kQuery
	if f == (runtime.Filter{}) {
		kind = kPage
	}
	id := b.c.begin(kind, 0)
	defer b.c.end(id, 0)
	return b.System.QuerySummaries(f, after, limit)
}

func (b *tracedBackend) ModelView(uri string) (*core.Model, bool) {
	id := b.c.begin(kModelView, 0)
	defer b.c.end(id, 0)
	return b.System.ModelView(uri)
}

// counters is a sample of the admin counters and the Go runtime's
// allocation statistics.
type counters struct {
	InstAppends, InstBatches, StoreAppends, StoreBatches uint64
	Rotations, Folds                                     uint64
	CacheHits, CacheMisses, CacheEvictions               uint64
	ScanQueries, OutOfOrderInserts                       int64
	Shed                                                 int64
	TotalAlloc                                           uint64
	NumGC                                                uint32
}

func (t *tracer) sample() counters {
	st := t.sys.StoreStats()
	rs := t.sys.RuntimeStats()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	c := counters{
		StoreAppends:      st.Engine.Appends,
		StoreBatches:      st.Engine.Batches,
		Rotations:         st.Engine.Rotations,
		Folds:             st.Engine.Folds,
		ScanQueries:       rs.PopulationIndex.ScanQueries,
		OutOfOrderInserts: rs.PopulationIndex.OutOfOrderInserts,
		Shed:              t.shed.Load(),
		TotalAlloc:        ms.TotalAlloc,
		NumGC:             ms.NumGC,
	}
	if in := st.Instances; in != nil {
		c.InstAppends, c.InstBatches = in.Appends, in.Batches
		c.Rotations += in.Rotations
		c.Folds += in.Folds
	}
	for _, r := range st.Reads {
		c.CacheHits += r.CacheHits
		c.CacheMisses += r.CacheMisses
		c.CacheEvictions += r.CacheEvictions
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		InstAppends: a.InstAppends - b.InstAppends, InstBatches: a.InstBatches - b.InstBatches,
		StoreAppends: a.StoreAppends - b.StoreAppends, StoreBatches: a.StoreBatches - b.StoreBatches,
		Rotations: a.Rotations - b.Rotations, Folds: a.Folds - b.Folds,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		CacheEvictions: a.CacheEvictions - b.CacheEvictions,
		ScanQueries:    a.ScanQueries - b.ScanQueries, OutOfOrderInserts: a.OutOfOrderInserts - b.OutOfOrderInserts,
		Shed:       a.Shed - b.Shed,
		TotalAlloc: a.TotalAlloc - b.TotalAlloc, NumGC: a.NumGC - b.NumGC,
	}
}

// reset drops every span recorded so far and samples the counters the
// report subtracts. The benchmark calls it between warm-up and the
// measured phase, when no request is in flight.
func (t *tracer) reset() {
	t.mu.Lock()
	for _, c := range t.conns {
		c.mu.Lock()
		c.spans, c.ops, c.bytes = c.spans[:0], c.ops[:0], c.bytes[:0]
		c.cur = -1
		c.mu.Unlock()
	}
	t.bgCount, t.bgTime = 0, 0
	t.mu.Unlock()
	base := t.sample()
	t.mu.Lock()
	t.base = base
	t.mu.Unlock()
}

// layerTrace aggregates the spans of one kind (or of one op class).
type layerTrace struct {
	Count  int64   `json:"count"`
	Total  float64 `json:"total_us"` // summed durations
	Self   float64 `json:"self_us"`  // summed self times
	RespBy int64   `json:"resp_bytes,omitempty"`
}

// traceReport is what the traced host hands the benchmark after the
// measured phase.
type traceReport struct {
	Layers     map[string]layerTrace `json:"layers"`
	Ops        map[string]layerTrace `json:"ops"` // handler spans by op class
	Background layerTrace            `json:"journal_background"`
	Delta      counters              `json:"delta"`
	Start      startInfo             `json:"start"`
}

// startInfo describes how the traced host came up.
type startInfo struct {
	Population       int     `json:"population"`
	HeapBytes        uint64  `json:"heap_bytes"` // live heap after recovery and a forced GC
	RecoveredRecords int64   `json:"recovered_records"`
	RecoveryUs       float64 `json:"recovery_us"`
}

func (t *tracer) report() traceReport {
	rep := traceReport{Layers: make(map[string]layerTrace), Ops: make(map[string]layerTrace), Start: t.start}
	after := t.sample()
	t.mu.Lock()
	defer t.mu.Unlock()
	rep.Delta = after.minus(t.base)
	rep.Background = layerTrace{Count: t.bgCount, Total: us(t.bgTime)}
	add := func(m map[string]layerTrace, k string, total, self time.Duration, by int64) {
		l := m[k]
		l.Count++
		l.Total += us(total)
		l.Self += us(self)
		l.RespBy += by
		m[k] = l
	}
	for _, c := range t.conns {
		c.mu.Lock()
		self := selfTimes(c.spans)
		for i, s := range c.spans {
			if s.end == 0 { // still open: not part of the measured phase
				continue
			}
			add(rep.Layers, spanNames[s.kind], s.end-s.start, self[i], 0)
			if s.kind == kHTTP {
				add(rep.Ops, c.ops[i].String(), s.end-s.start, self[i], c.bytes[i])
			}
		}
		c.mu.Unlock()
	}
	return rep
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serveTraced is the `serve-traced` mode: open the data directory the
// way geleed does, with the tracing hooks, and serve until killed.
func serveTraced(args []string) error {
	fl := flag.NewFlagSet("serve-traced", flag.ContinueOnError)
	dir := fl.String("data", "", "data directory")
	addr := fl.String("addr", "127.0.0.1:0", "listen address")
	if err := fl.Parse(args); err != nil {
		return err
	}
	t := newTracer()
	opts := geleedOptions(*dir)
	opts.Resilience.WrapJournal = t.wrapJournal
	sys, err := gelee.New(opts)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer sys.Close()
	t.sys = sys
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	rec := sys.RecoveryStats()
	t.start = startInfo{
		Population:       sys.InstanceCount(),
		HeapBytes:        ms.HeapAlloc,
		RecoveredRecords: rec.Records,
		RecoveryUs:       us(rec.Elapsed),
	}
	t.reset()
	srv := &http.Server{Addr: *addr, Handler: t, ConnContext: t.connContext}
	return srv.ListenAndServe()
}

// tracedPart is what one part measured against the traced host.
type tracedPart struct {
	ps         *phaseStats
	rep        traceReport
	diskGrowth int64
	settings   settings
}

// runTraced drives one part of the workload against the traced host on
// dir, a fresh copy of prepared.
func runTraced(cfg config, prepared, dir string, pt part) (*tracedPart, error) {
	w := cfg.workload
	if err := restore(prepared, dir); err != nil {
		return nil, err
	}
	started := time.Now()
	s, err := startServer(cfg.self, []string{"serve-traced", "-data", dir}, filepath.Join(filepath.Dir(dir), "traced.log"))
	if err != nil {
		return nil, err
	}
	defer s.kill()
	if _, err := s.waitReady(started, w.population); err != nil {
		return nil, fmt.Errorf("traced host: %w", err)
	}
	tp := &tracedPart{}
	if tp.settings, err = readSettings(s.base); err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	cs := newClients(cfg.ref, w.population, w.name == "project")
	defer closeClients(cs)
	var diskBefore int64
	st, err := runPart(cs, s.base, pt.warm, pt.measured, func() error {
		var ack struct{}
		if err := getJSON(hc, s.base+"/perfbench/trace/reset", &ack); err != nil {
			return err
		}
		diskBefore, err = dirBytes(dir)
		return err
	})
	if err != nil {
		return nil, err
	}
	if tp.ps, err = summarize(cs, []partStats{st}); err != nil {
		return nil, err
	}
	if err := getJSON(hc, s.base+"/perfbench/trace/report", &tp.rep); err != nil {
		return nil, err
	}
	diskAfter, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	tp.diskGrowth = diskAfter - diskBefore
	return tp, nil
}

// tracedResult reports the per-layer metrics of tp; ref is the
// untraced run of the same invocation, whose first part ran the same
// ops as tp.
func tracedResult(tp *tracedPart, ref *e2e) (*result, error) {
	if d := ref.settings.diff(tp.settings); len(d) > 0 {
		return nil, fmt.Errorf("the traced host is configured unlike geleed (keep geleedOptions in step with cmd/geleed): %s", strings.Join(d, "; "))
	}
	ref.report()
	m := perLayer(tp, ref)
	printMetrics("per-layer (traced run, stack hosted in perfbench):", m)
	for _, f := range tp.ps.failures {
		fmt.Println("  FAIL traced:", f)
	}
	failed := ref.failed() + tp.ps.failed
	return &result{
		Correct:   failed == 0,
		Attempted: ref.attempted() + tp.ps.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// perLayer turns the traced host's report into the per-layer metrics.
// Per-op figures divide by the measured workload ops (pings excluded).
func perLayer(tp *tracedPart, ref *e2e) map[string]metric {
	ps, rep := tp.ps, tp.rep
	ops := float64(ps.ops)
	d := rep.Delta
	mean := func(l layerTrace, self bool) float64 {
		if l.Count == 0 {
			return 0
		}
		if self {
			return l.Self / float64(l.Count)
		}
		return l.Total / float64(l.Count)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]metric{}
	var respBytes, handled int64
	var handlerUs float64
	for k := opAdvance; k < numOpKinds; k++ {
		l := rep.Ops[k.String()]
		m["httpapi.self_us."+k.String()] = metric{mean(l, true), "us"}
		respBytes += l.RespBy
		handled += l.Count
		handlerUs += l.Total
	}
	m["httpapi.resp_bytes_per_op"] = metric{float64(respBytes) / ops, "B"}
	m["resilience.admit_us"] = metric{mean(rep.Layers["admit"], false), "us"}
	m["resilience.shed_total"] = metric{float64(d.Shed), "count"}
	m["runtime.advance_self_us"] = metric{mean(rep.Layers["advance"], true), "us"}
	m["runtime.instantiate_self_us"] = metric{mean(rep.Layers["instantiate"], true), "us"}
	m["runtime.page_us"] = metric{mean(rep.Layers["page"], false), "us"}
	m["runtime.query_us"] = metric{mean(rep.Layers["query"], false), "us"}
	m["runtime.popindex.scan_queries"] = metric{float64(d.ScanQueries), "count"}
	m["runtime.popindex.out_of_order_inserts"] = metric{float64(d.OutOfOrderInserts), "count"}
	m["runtime.recovery_us_per_record"] = metric{ratio(rep.Start.RecoveryUs, float64(rep.Start.RecoveredRecords)), "us"}
	j, bg := rep.Layers["journal"], rep.Background
	m["store.journal_record_us"] = metric{ratio(j.Total+bg.Total, float64(j.Count+bg.Count)), "us"}
	m["store.instances.appends_per_op"] = metric{float64(d.InstAppends) / ops, "count"}
	m["store.instances.batches_per_op"] = metric{float64(d.InstBatches) / ops, "count"}
	m["store.execlog.appends_per_op"] = metric{float64(d.StoreAppends) / ops, "count"}
	m["store.execlog.batches_per_op"] = metric{float64(d.StoreBatches) / ops, "count"}
	m["store.rotations"] = metric{float64(d.Rotations), "count"}
	m["store.folds"] = metric{float64(d.Folds), "count"}
	m["store.bytes_per_record"] = metric{ratio(float64(tp.diskGrowth), float64(d.InstAppends+d.StoreAppends)), "B"}
	m["store.readcache.hit_ratio"] = metric{ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)), "1"}
	m["store.readcache.evictions_per_op"] = metric{float64(d.CacheEvictions) / ops, "count"}
	m["store.model_view_us"] = metric{mean(rep.Layers["model_view"], false), "us"}
	m["go.heap_bytes_per_instance"] = metric{ratio(float64(rep.Start.HeapBytes), float64(rep.Start.Population)), "B"}
	m["go.alloc_bytes_per_op"] = metric{float64(d.TotalAlloc) / ops, "B"}
	m["go.gc_per_kop"] = metric{float64(d.NumGC) * 1000 / ops, "count"}
	m["harness.ping_p50_us"] = metric{ps.pingP50us, "us"}
	// Everything inside a request is the handler span (its self time
	// plus its children's); the ping floor stands for the client, the
	// loopback and net/http around it.
	accounted := ratio(handlerUs, float64(handled)) + ps.pingP50us
	m["trace.unaccounted_ratio"] = metric{1 - accounted/(ps.meanLat*1000), "1"}
	// Traced over untraced throughput of the same op sequence (part 0)
	// from the same restored state, each in the reference round trips
	// measured beside it, so that a change of the host's speed between
	// the two measurements cancels out.
	p0 := ref.parts[0]
	m["trace.overhead_ratio"] = metric{(p0.wall.Seconds() / tp.ps.wall.Seconds()) * (tp.ps.refP50us / 1000 / p0.ref), "1"}
	return m
}
