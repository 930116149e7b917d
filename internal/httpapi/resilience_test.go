// Overload and failure behavior over the wire: load shedding with 429
// + Retry-After, read-only rejection with a structured 503, the
// aggregated health report, and the threshold alert feed.
package httpapi_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

// newResilienceEnv builds a server over a System with the given
// resilience options.
func newResilienceEnv(t *testing.T, res gelee.ResilienceOptions) *env {
	t.Helper()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys, err := gelee.New(gelee.Options{
		Clock:           clock,
		EmbeddedPlugins: true,
		SyncActions:     true,
		Resilience:      res,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.HTTPHandler())
	t.Cleanup(func() { srv.Close(); sys.Close() })
	return &env{sys: sys, srv: srv, clock: clock}
}

// seedInstance defines the scenario model and instantiates it through
// the embedded facade, returning the instance id.
func seedInstance(t *testing.T, e *env) string {
	t.Helper()
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	e.sys.Sims.Wiki.CreatePage("D1.1", "owner", "x")
	snap, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	return snap.ID
}

func TestAdminHealthHealthy(t *testing.T) {
	e := newResilienceEnv(t, gelee.ResilienceOptions{})
	var rep struct {
		State  string `json:"state"`
		Health struct {
			State string `json:"state"`
		} `json:"health"`
		Probes struct {
			Attempts int64 `json:"attempts"`
		} `json:"probes"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/health", "", nil, &rep); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if rep.State != "healthy" || rep.Health.State != "healthy" {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSheddingReturns429AndRecovers(t *testing.T) {
	var depth atomic.Int64
	e := newResilienceEnv(t, gelee.ResilienceOptions{
		MaxQueueDepth:  4,
		ShedRetryAfter: 2 * time.Second,
		DepthSignal:    func() int { return int(depth.Load()) },
	})
	id := seedInstance(t, e)

	depth.Store(10)
	req, _ := http.NewRequest("POST", e.srv.URL+"/api/v1/instances/"+id+"/advance",
		strings.NewReader(`{"to":"elaboration","actor":"owner"}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated advance: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want 2", resp.Header.Get("Retry-After"))
	}
	var body struct {
		Code         string `json:"code"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := jsonDecode(resp, &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "overloaded" || body.RetryAfterMS != 2000 {
		t.Fatalf("shed body = %+v", body)
	}

	// Reads are never shed.
	if code := e.call(t, "GET", "/api/v1/instances/"+id, "", nil, nil); code != http.StatusOK {
		t.Fatalf("read under shedding: status %d", code)
	}

	// Backlog drains below the resume level: mutations admitted again.
	depth.Store(0)
	if code := e.call(t, "POST", "/api/v1/instances/"+id+"/advance", "owner",
		map[string]any{"to": "elaboration"}, nil); code != http.StatusOK {
		t.Fatalf("recovered advance: status %d", code)
	}

	var rep struct {
		Admission struct {
			Shed int64 `json:"shed_total"`
		} `json:"admission"`
	}
	e.call(t, "GET", "/api/v1/admin/health", "", nil, &rep)
	if rep.Admission.Shed == 0 {
		t.Fatal("shed counter not surfaced in health report")
	}
}

// failSink is a journal that fails once armed: the WrapJournal seam
// turns the system's instance persistence into a broken disk mid-run.
type failSink struct {
	armed atomic.Bool
	fails atomic.Int64
}

func (f *failSink) Record(*runtime.JournalRecord) error {
	if !f.armed.Load() {
		return nil
	}
	f.fails.Add(1)
	return errors.New("injected: disk gone")
}

func TestReadOnlyModeRejectsWith503(t *testing.T) {
	sink := &failSink{}
	e := newResilienceEnv(t, gelee.ResilienceOptions{
		ReadOnlyAfter: 1,
		WrapJournal:   func(runtime.Journal) runtime.Journal { return sink },
	})
	id := seedInstance(t, e)

	// Break the disk, then advance: the append error surfaces as a 400
	// and the move leaves no trace in memory, and the health machine
	// trips read-only behind it.
	sink.armed.Store(true)
	if code := e.call(t, "POST", "/api/v1/instances/"+id+"/advance", "owner",
		map[string]any{"to": "elaboration"}, nil); code != http.StatusBadRequest {
		t.Fatalf("tripping advance: status %d, want 400 (journal error surfaced)", code)
	}

	// Now read-only: the next mutation gets a structured 503.
	resp, err := http.Post(e.srv.URL+"/api/v1/instances/"+id+"/advance", "application/json",
		strings.NewReader(`{"to":"internalreview","actor":"owner"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read-only advance: status %d, want 503", resp.StatusCode)
	}
	var body struct {
		Code string `json:"code"`
		Mode string `json:"mode"`
	}
	if err := jsonDecode(resp, &body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "read_only" || body.Mode != "read-only" {
		t.Fatalf("read-only body = %+v", body)
	}

	// Reads still serve.
	if code := e.call(t, "GET", "/api/v1/instances/"+id, "", nil, nil); code != http.StatusOK {
		t.Fatalf("read in read-only mode: status %d", code)
	}
	// The health endpoint reports 503 so load balancers eject the node.
	var rep struct {
		State string `json:"state"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/health", "", nil, &rep); code != http.StatusServiceUnavailable {
		t.Fatalf("health status %d, want 503", code)
	}
	if rep.State != "read-only" {
		t.Fatalf("health state = %q", rep.State)
	}
	if sink.fails.Load() == 0 {
		t.Fatal("fault sink never exercised")
	}
}

func TestSOAPAdvanceGated(t *testing.T) {
	sink := &failSink{}
	e := newResilienceEnv(t, gelee.ResilienceOptions{
		ReadOnlyAfter: 1,
		WrapJournal:   func(runtime.Journal) runtime.Journal { return sink },
	})
	id := seedInstance(t, e)
	sink.armed.Store(true)
	if code := e.call(t, "POST", "/api/v1/instances/"+id+"/advance", "owner",
		map[string]any{"to": "elaboration"}, nil); code != http.StatusBadRequest {
		t.Fatalf("tripping advance: status %d, want 400 (journal error surfaced)", code)
	}

	envl := `<?xml version="1.0"?><Envelope><Body><advance xmlns="urn:gelee:lifecycle">` +
		`<instanceId>` + id + `</instanceId><to>internalreview</to><actor>owner</actor></advance></Body></Envelope>`
	resp, err := http.Post(e.srv.URL+"/soap", "text/xml", strings.NewReader(envl))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp)
	if !strings.Contains(raw, "Fault") || !strings.Contains(raw, "read-only") {
		t.Fatalf("SOAP advance in read-only mode returned %q", raw)
	}
}

func TestAlertsFireAndStream(t *testing.T) {
	var depth atomic.Int64
	e := newResilienceEnv(t, gelee.ResilienceOptions{
		MaxQueueDepth: 10,
		DepthSignal:   func() int { return int(depth.Load()) },
		AlertInterval: 5 * time.Millisecond,
	})

	// Subscribe to the SSE stream before the alert fires.
	streamReq, _ := http.NewRequest("GET", e.srv.URL+"/api/v1/admin/alerts/stream", nil)
	streamResp, err := http.DefaultClient.Do(streamReq)
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream content type = %q", ct)
	}

	depth.Store(50) // over the 80% threshold of the watermark

	type lineResult struct {
		line string
		err  error
	}
	lines := make(chan lineResult, 64)
	go func() {
		sc := bufio.NewScanner(streamResp.Body)
		for sc.Scan() {
			lines <- lineResult{line: sc.Text()}
		}
		lines <- lineResult{err: sc.Err()}
	}()
	deadline := time.After(5 * time.Second)
	var data string
	for data == "" {
		select {
		case lr := <-lines:
			if lr.err != nil {
				t.Fatalf("stream read: %v", lr.err)
			}
			if strings.HasPrefix(lr.line, "data: ") && strings.Contains(lr.line, "commit-queue-depth") {
				data = lr.line
			}
		case <-deadline:
			t.Fatal("no commit-queue-depth alert on the SSE stream")
		}
	}
	if !strings.Contains(data, `"firing"`) {
		t.Fatalf("alert line = %q, want firing", data)
	}

	// The same alert is retained for polling clients.
	var polled struct {
		Alerts []struct {
			Rule  string `json:"rule"`
			State string `json:"state"`
		} `json:"alerts"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/alerts?limit=10", "", nil, &polled); code != http.StatusOK {
		t.Fatalf("alerts poll: status %d", code)
	}
	found := false
	for _, a := range polled.Alerts {
		if a.Rule == "commit-queue-depth" && a.State == "firing" {
			found = true
		}
	}
	if !found {
		t.Fatalf("polled alerts = %+v", polled.Alerts)
	}
}

func jsonDecode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
