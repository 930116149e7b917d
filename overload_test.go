// Overload and failure engineering at the system level: the health
// state machine driven by an injected faulty journal (healthy →
// read-only → probe-based recovery), kill-under-shedding durability of
// acked writes, and circuit-breaker isolation of a wedged action
// endpoint.
package gelee

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/resilience"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

// faultJournal wraps the real instance sink with switchable failure
// modes: pass-through, fail-forever, or fail-N-times.
type faultJournal struct {
	inner     runtime.Journal
	failing   atomic.Bool
	remaining atomic.Int64 // when > 0, that many failures then heal
	failures  atomic.Int64
}

func (f *faultJournal) Record(rec *runtime.JournalRecord) error {
	if n := f.remaining.Load(); n > 0 {
		if f.remaining.CompareAndSwap(n, n-1) {
			f.failures.Add(1)
			return errors.New("injected: transient write error")
		}
	}
	if f.failing.Load() {
		f.failures.Add(1)
		return errors.New("injected: disk gone")
	}
	return f.inner.Record(rec)
}

// TestJournalFaultReadOnlyAndProbeRecovery drives the full failure arc
// on a durable deployment: a broken instance journal trips the system
// through degraded into read-only; once the disk heals, the durability
// prober — not organic traffic — proves it and steps the machine back
// to healthy; and a restart recovers every cleanly-acked mutation.
func TestJournalFaultReadOnlyAndProbeRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	fault := &faultJournal{}
	opts := restartOpts(dir, clock)
	opts.Resilience = ResilienceOptions{
		DegradeAfter:  1,
		ReadOnlyAfter: 2,
		RecoverAfter:  2,
		ProbeInterval: 2 * time.Millisecond,
		WrapJournal: func(inner runtime.Journal) runtime.Journal {
			fault.inner = inner
			return fault
		},
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	// No deferred Close on the first System: the test ends with a kill.

	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	mkInstance := func(page string) string {
		t.Helper()
		if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "= "+page+" ="); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(model.URI,
			Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner",
			map[string]map[string]string{
				"http://www.liquidpub.org/a/notify": {"reviewers": "alice,bob"},
				"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
			})
		if err != nil {
			t.Fatal(err)
		}
		return snap.ID
	}
	main := mkInstance("D1.1")
	victim := mkInstance("D1.2")
	if _, err := sys.Advance(main, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := sys.Health(); got != resilience.Healthy {
		t.Fatalf("health after clean writes = %v", got)
	}

	// Disk dies. Each mutation on the victim returns its append error
	// and leaves no trace in memory, and the machine ratchets to
	// read-only.
	preFault, _ := sys.Summary(victim)
	fault.failing.Store(true)
	if _, err := sys.Advance(victim, "elaboration", "owner", AdvanceOptions{}); err == nil {
		t.Fatal("advance on a broken journal reported clean ack")
	}
	for i := 0; sys.Health() != resilience.ReadOnly && i < 5; i++ {
		sys.Advance(victim, scenario.HappyPath[i+1], "owner", AdvanceOptions{})
	}
	if got := sys.Health(); got != resilience.ReadOnly {
		t.Fatalf("health after persistent failures = %v, want read-only", got)
	}
	if err := sys.AdmitMutation(); !errors.Is(err, resilience.ErrReadOnly) {
		t.Fatalf("gate in read-only mode = %v", err)
	}

	// Disk heals. No organic writes are admitted, so only the prober
	// can discover recovery; wait for it to walk the machine home.
	fault.failing.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for sys.Health() != resilience.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("probes never recovered the system; health = %v, report = %+v",
				sys.Health(), sys.HealthReport())
		}
		time.Sleep(time.Millisecond)
	}
	rep := sys.HealthReport()
	if rep.Probes.Attempts == 0 {
		t.Fatal("recovery happened without probes")
	}
	if rep.Health.ReadOnlyTotal != 1 || rep.Health.RecoveredTotal != 1 {
		t.Fatalf("health counters = %+v", rep.Health)
	}
	assertVictim := func(label string, sys *System) {
		t.Helper()
		got, ok := sys.Summary(victim)
		if w, g := jsonString(t, preFault), jsonString(t, got); !ok || w != g {
			t.Fatalf("victim %s = %s (ok=%v), want its pre-fault summary %s", label, g, ok, w)
		}
	}
	assertVictim("after the fault healed", sys)

	// Back to business: a clean, durable mutation.
	if _, err := sys.Advance(main, "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	sys.Runtime.WaitDispatch()

	// Kill (no Close) and restart without the fault seam: everything
	// cleanly acked must be there, and probe records must replay as
	// no-ops.
	sys2 := newSystem(t, restartOpts(dir, clock))
	sum, ok := sys2.Summary(main)
	if !ok || sum.Current != "internalreview" {
		t.Fatalf("main instance after restart = %+v (ok=%v), want internalreview", sum, ok)
	}
	assertVictim("after a restart", sys2)

	// A clean Close and reopen on the same data dir replays the same
	// acknowledged set.
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}
	assertVictim("after Close and reopen", newSystem(t, restartOpts(dir, clock)))
}

// jsonString marshals v for comparison by value.
func jsonString(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestKillUnderSheddingNoAckedWriteLost saturates admission control
// while mutations stream in over HTTP, kills the process, restarts,
// and proves the 200-acked advances are all there and the 429-shed
// ones never happened.
func TestKillUnderSheddingNoAckedWriteLost(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	var depth atomic.Int64
	opts := restartOpts(dir, clock)
	opts.Resilience = ResilienceOptions{
		MaxQueueDepth: 4,
		DepthSignal:   func() int { return int(depth.Load()) },
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.HTTPHandler())
	defer srv.Close()

	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	const n = 8
	ids := make([]string, n)
	initial := make([]string, n)
	for i := range ids {
		page := fmt.Sprintf("D2.%d", i+1)
		if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(model.URI,
			Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
		sum, _ := sys.Summary(snap.ID)
		initial[i] = sum.Current
	}

	// Alternate saturation on and off while advancing each instance
	// once: even requests are admitted and acked, odd ones shed 429.
	acked := make([]bool, n)
	for i, id := range ids {
		if i%2 == 0 {
			depth.Store(0)
		} else {
			depth.Store(100)
		}
		resp, err := http.Post(srv.URL+"/api/v1/instances/"+id+"/advance", "application/json",
			bytes.NewReader([]byte(`{"to":"elaboration","actor":"owner"}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			acked[i] = true
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("advance %d: status %d", i, resp.StatusCode)
		}
	}
	sys.Runtime.WaitDispatch()
	ackCount := 0
	for _, a := range acked {
		if a {
			ackCount++
		}
	}
	if ackCount != n/2 {
		t.Fatalf("acked %d advances, want %d (shedding toggle broken)", ackCount, n/2)
	}

	// Kill (no Close) and restart: acked advances are durable, shed
	// ones left no trace.
	sys2 := newSystem(t, restartOpts(dir, clock))
	for i, id := range ids {
		sum, ok := sys2.Summary(id)
		if !ok {
			t.Fatalf("instance %d lost across restart", i)
		}
		if acked[i] && sum.Current != "elaboration" {
			t.Fatalf("instance %d: acked advance lost (current = %q)", i, sum.Current)
		}
		if !acked[i] && sum.Current != initial[i] {
			t.Fatalf("instance %d: shed advance applied anyway (current = %q)", i, sum.Current)
		}
	}
}

// TestWedgedEndpointBreakerIsolation registers two REST action
// endpoints — one wedged, one healthy — and proves the circuit opens
// on the wedged one, stops hammering it, and never slows dispatch to
// the healthy one.
func TestWedgedEndpointBreakerIsolation(t *testing.T) {
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

	sys := newSystem(t, Options{Resilience: ResilienceOptions{
		InvokeTimeout:   100 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: time.Hour,
	}})

	register := func(name, endpoint string) string {
		t.Helper()
		uri := "http://actions.test/" + name
		err := sys.RegisterAction("", actionlib.ActionType{URI: uri, Name: name},
			actionlib.Implementation{
				TypeURI:      uri,
				ResourceType: "mediawiki",
				Endpoint:     endpoint,
				Protocol:     actionlib.ProtocolREST,
			})
		if err != nil {
			t.Fatal(err)
		}
		return uri
	}
	wedgedURI := register("wedge", wedged.URL)
	healthyURI := register("fine", healthy.URL)

	mkModel := func(name, actionURI string) string {
		t.Helper()
		uri := "urn:test:models:" + name
		m := NewModel(uri, name).
			SuggestTypes("mediawiki").
			Phase("work", "Work").Action(actionURI, name).Done().
			FinalPhase("done", "Done").
			Initial("work").
			Chain("work", "done").
			MustBuild()
		if err := sys.DefineModel("", m); err != nil {
			t.Fatal(err)
		}
		return uri
	}
	wedgedModel := mkModel("wedged", wedgedURI)
	healthyModel := mkModel("healthy", healthyURI)

	instantiate := func(modelURI, page string) string {
		t.Helper()
		if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(modelURI,
			Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		return snap.ID
	}

	// Three instances hit the wedged endpoint. SyncActions dispatches
	// inline: the first two time out and trip the breaker, the third
	// fails fast without ever reaching the endpoint.
	for i := 0; i < 3; i++ {
		id := instantiate(wedgedModel, fmt.Sprintf("W%d", i))
		if _, err := sys.Advance(id, "work", "owner", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := wedgedHits.Load(); got != 2 {
		t.Fatalf("wedged endpoint saw %d calls, want 2 (third must fast-fail)", got)
	}
	rep := sys.HealthReport()
	if rep.BreakerOpens != 1 || rep.BreakerRejected == 0 {
		t.Fatalf("breaker counters = opens %d rejected %d", rep.BreakerOpens, rep.BreakerRejected)
	}
	if st := rep.Breakers[wedged.URL]; st.State != "open" {
		t.Fatalf("wedged breaker state = %q", st.State)
	}

	// Healthy-endpoint instances dispatch undisturbed — and fast: the
	// open circuit next door costs them nothing.
	start := time.Now()
	for i := 0; i < 4; i++ {
		id := instantiate(healthyModel, fmt.Sprintf("H%d", i))
		if _, err := sys.Advance(id, "work", "owner", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if got := healthyHits.Load(); got != 4 {
		t.Fatalf("healthy endpoint saw %d calls, want 4", got)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("healthy advances took %v: wedged endpoint leaked into the fast path", elapsed)
	}
	if st := sys.HealthReport().Breakers[healthy.URL]; st.State != "closed" {
		t.Fatalf("healthy breaker state = %q", st.State)
	}
}
