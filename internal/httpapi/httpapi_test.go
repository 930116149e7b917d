// These tests drive the full Fig. 2 architecture over the wire: REST
// design-time and run-time APIs, the Fig. 3 action browse, callbacks,
// the monitoring cockpit, Fig. 4 widgets, and the SOAP subset — using a
// real gelee.System with the embedded plug-in suite as the backend.
package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/httpapi"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
	"github.com/liquidpub/gelee/internal/xmlcodec"
)

type env struct {
	sys   *gelee.System
	srv   *httptest.Server
	clock *vclock.Fake
}

func newEnv(t *testing.T, auth bool) *env {
	t.Helper()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys, err := gelee.New(gelee.Options{
		Clock:           clock,
		EmbeddedPlugins: true,
		SyncActions:     true,
		Auth:            auth,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.HTTPHandler())
	t.Cleanup(func() { srv.Close(); sys.Close() })
	return &env{sys: sys, srv: srv, clock: clock}
}

// call issues a JSON request and decodes the JSON response into out
// (which may be nil).
func (e *env) call(t *testing.T, method, path, user string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if user != "" {
		req.Header.Set(httpapi.UserHeader, user)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

type instanceJSON struct {
	ID            string   `json:"id"`
	State         string   `json:"state"`
	Current       string   `json:"current"`
	NextSuggested []string `json:"next_suggested"`
	Pending       string   `json:"pending_change"`
	Executions    []struct {
		ActionURI  string `json:"action_uri"`
		LastStatus string `json:"last_status"`
		Terminal   bool   `json:"terminal"`
	} `json:"executions"`
}

func TestPing(t *testing.T) {
	e := newEnv(t, false)
	var out map[string]string
	if code := e.call(t, "GET", "/api/v1/ping", "", nil, &out); code != 200 {
		t.Fatalf("ping = %d", code)
	}
	if out["gelee"] != "ok" {
		t.Fatalf("ping body = %v", out)
	}
}

// TestFig2EndToEnd is experiment E4: define a model with Table I XML,
// instantiate it on a simulated document over REST, advance through the
// lifecycle, watch actions execute and callbacks land, read the
// execution history.
func TestFig2EndToEnd(t *testing.T) {
	e := newEnv(t, false)

	// 1. Design time: POST the Table I XML document.
	model := scenario.QualityPlan()
	xmlDoc, err := xmlcodec.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("POST", e.srv.URL+"/api/v1/models", bytes.NewReader(xmlDoc))
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("define model = %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	// The stored model round-trips back as Table I XML.
	resp, err = http.Get(e.srv.URL + "/api/v1/models/" + url.PathEscape(model.URI) + "?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	back, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m2, err := xmlcodec.UnmarshalModel(back)
	if err != nil {
		t.Fatalf("returned XML invalid: %v", err)
	}
	if m2.Fingerprint() != model.Fingerprint() {
		t.Fatal("model drifted across the API")
	}

	// 2. Create the managed resource in the simulated service.
	e.sys.Sims.GDocs.Create("D2.1", "Requirements Analysis", "epfl-lead", "draft")

	// 3. Run time: instantiate over REST.
	var inst instanceJSON
	code := e.call(t, "POST", "/api/v1/instances", "epfl-lead", map[string]any{
		"model_uri": model.URI,
		"resource":  map[string]string{"uri": "http://docs.liquidpub.org/docs/D2.1", "type": "gdoc"},
		"owner":     "epfl-lead",
		"bindings": map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": "unitn-reviewer"},
		},
	}, &inst)
	if code != http.StatusCreated {
		t.Fatalf("instantiate = %d", code)
	}
	if inst.Current != "" || inst.State != "active" {
		t.Fatalf("fresh instance = %+v", inst)
	}

	// 4. Advance through the whole lifecycle.
	for _, phase := range scenario.HappyPath {
		body := map[string]any{"to": phase}
		if phase == "publication" {
			body["bindings"] = map[string]map[string]string{
				"http://www.liquidpub.org/a/post": {"site": "project.liquidpub.org"},
			}
		}
		var out instanceJSON
		if code := e.call(t, "POST", "/api/v1/instances/"+inst.ID+"/advance", "epfl-lead", body, &out); code != 200 {
			t.Fatalf("advance %s = %d", phase, code)
		}
		if out.Current != phase {
			t.Fatalf("current = %q after advancing to %q", out.Current, phase)
		}
	}

	// 5. Final state: completed, all actions terminal-completed.
	var final instanceJSON
	e.call(t, "GET", "/api/v1/instances/"+inst.ID, "", nil, &final)
	if final.State != "completed" {
		t.Fatalf("state = %s", final.State)
	}
	if len(final.Executions) == 0 {
		t.Fatal("no executions recorded")
	}
	for _, ex := range final.Executions {
		if !ex.Terminal || ex.LastStatus != "completed" {
			t.Fatalf("execution %+v", ex)
		}
	}

	// 6. The document itself changed: published documents are public.
	doc, _ := e.sys.Sims.GDocs.Get("D2.1")
	if doc.Mode != "public" {
		t.Fatalf("document mode = %s", doc.Mode)
	}

	// 7. The cockpit saw everything — via the uniform page envelope.
	var tl struct {
		Items []map[string]any `json:"items"`
		Total int              `json:"total"`
	}
	code, hdr, body := rawGet(t, e.srv.URL, "/api/v1/monitor/instances/"+inst.ID+"/timeline")
	if code != 200 {
		t.Fatalf("timeline = %d", code)
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Items) < 8 || tl.Total != len(tl.Items) {
		t.Fatalf("timeline items = %d, total = %d", len(tl.Items), tl.Total)
	}
	assertNoAliases(t, hdr, body)
}

func TestFig3ActionBrowse(t *testing.T) {
	e := newEnv(t, false)
	var all []map[string]any
	e.call(t, "GET", "/api/v1/actions", "", nil, &all)
	var svnOnly []map[string]any
	e.call(t, "GET", "/api/v1/actions?resource_type=svn", "", nil, &svnOnly)
	if len(all) <= len(svnOnly) {
		t.Fatalf("design browse (%d) should exceed svn runtime browse (%d)", len(all), len(svnOnly))
	}
	if len(svnOnly) != 3 {
		t.Fatalf("svn actions = %d, want 3", len(svnOnly))
	}
}

func TestRegisterActionOverAPI(t *testing.T) {
	e := newEnv(t, false)
	// JSON form with implementations.
	code := e.call(t, "POST", "/api/v1/actions", "", map[string]any{
		"type": map[string]any{"URI": "urn:custom:archive", "Name": "Archive"},
		"implementations": []map[string]any{
			{"ResourceType": "gdoc", "Endpoint": "http://archiver/act", "Protocol": "rest"},
		},
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	var gdocActions []map[string]any
	e.call(t, "GET", "/api/v1/actions?resource_type=gdoc", "", nil, &gdocActions)
	found := false
	for _, a := range gdocActions {
		if a["URI"] == "urn:custom:archive" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered action not browsable")
	}

	// Table II XML form.
	xmlBody := `<action_type uri="urn:custom:stamp"><name>Stamp</name>
	  <parameters><param bindingTime="call" required="yes"><name>seal</name><value></value></param></parameters>
	</action_type>`
	req, _ := http.NewRequest("POST", e.srv.URL+"/api/v1/actions", strings.NewReader(xmlBody))
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("XML register = %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()
}

func TestDeviationAndMigrationOverAPI(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")

	var inst instanceJSON
	e.call(t, "POST", "/api/v1/instances", "owner", map[string]any{
		"model_uri": model.URI,
		"resource":  map[string]string{"uri": "http://wiki/D1.1", "type": "mediawiki"},
		"owner":     "owner",
	}, &inst)

	// Deviation with annotation.
	var out instanceJSON
	e.call(t, "POST", "/api/v1/instances/"+inst.ID+"/advance", "owner",
		map[string]any{"to": "eureview", "annotation": "skipping everything, deadline"}, &out)
	if out.Current != "eureview" {
		t.Fatalf("current = %q", out.Current)
	}

	// Propagate a model change, then reject it over the API.
	v2 := model.Clone()
	v2.Version.Number = "2.0"
	v2.Phases = append(v2.Phases, &gelee.Phase{ID: "archival", Name: "Archival"})
	data, _ := json.Marshal(v2)
	req, _ := http.NewRequest("POST", e.srv.URL+"/api/v1/models/propagate?note=archive", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var prop map[string]int
	json.NewDecoder(resp.Body).Decode(&prop)
	resp.Body.Close()
	if prop["proposed_to"] != 1 {
		t.Fatalf("propagate = %v", prop)
	}
	var got instanceJSON
	e.call(t, "GET", "/api/v1/instances/"+inst.ID, "", nil, &got)
	if got.Pending == "" {
		t.Fatal("pending change missing")
	}
	if code := e.call(t, "POST", "/api/v1/instances/"+inst.ID+"/migrate", "owner",
		map[string]any{"decision": "reject", "note": "not now"}, nil); code != 200 {
		t.Fatalf("reject = %d", code)
	}
	var after instanceJSON
	e.call(t, "GET", "/api/v1/instances/"+inst.ID, "", nil, &after)
	if after.Pending != "" {
		t.Fatal("pending survived rejection")
	}
	// Bad decision value.
	if code := e.call(t, "POST", "/api/v1/instances/"+inst.ID+"/migrate", "owner",
		map[string]any{"decision": "maybe"}, nil); code != 400 {
		t.Fatalf("bad decision = %d", code)
	}
}

func TestCallbackEndpoint(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})
	e.sys.Advance(snap.ID, "internalreview", "owner", gelee.AdvanceOptions{
		CallBindings: map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": "r1"},
		},
	})
	got, _ := e.sys.Instance(snap.ID)
	inv := got.Executions[0].InvocationID

	// Late duplicate callback over HTTP: accepted, idempotent.
	body := fmt.Sprintf(`{"invocation_id":%q,"message":"completed","detail":"late dup"}`, inv)
	resp, err := http.Post(e.srv.URL+"/api/v1/callbacks/"+inv, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("callback = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Mismatched path/body ids rejected.
	resp, _ = http.Post(e.srv.URL+"/api/v1/callbacks/inv-000042", "application/json", strings.NewReader(body))
	if resp.StatusCode != 400 {
		t.Fatalf("mismatch = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown invocation 404s.
	resp, _ = http.Post(e.srv.URL+"/api/v1/callbacks/inv-999999", "application/json",
		strings.NewReader(`{"invocation_id":"inv-999999","message":"completed"}`))
	if resp.StatusCode != 404 {
		t.Fatalf("unknown = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestAdvanceResponseModes pins the copy-free default of the advance
// endpoint — summary fields plus only the appended events — and the
// ?full=1 escape back to the full history snapshot.
func TestAdvanceResponseModes(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})

	type advResp struct {
		instanceJSON
		Events []struct {
			Seq  int    `json:"seq"`
			Kind string `json:"kind"`
		} `json:"events"`
	}

	// Default: summary mode. internalreview dispatches two actions, so
	// this move appends phase-entered + two action events — and nothing
	// from the prior history.
	var out advResp
	if code := e.call(t, "POST", "/api/v1/instances/"+snap.ID+"/advance", "owner",
		map[string]any{"to": "internalreview"}, &out); code != 200 {
		t.Fatalf("advance = %d", code)
	}
	if out.Current != "internalreview" || out.State != "active" {
		t.Fatalf("summary response = %+v", out.instanceJSON)
	}
	if len(out.Executions) != 0 {
		t.Fatalf("summary mode carried %d executions", len(out.Executions))
	}
	if len(out.Events) != 3 {
		t.Fatalf("appended events = %d, want 3 (phase-entered + 2 actions)", len(out.Events))
	}
	if out.Events[0].Kind != "phase-entered" {
		t.Fatalf("first appended = %+v", out.Events[0])
	}
	// Seqs continue the instance history (created + phase-entered came
	// before), proving these are EventsSince(pre-move seq).
	if out.Events[0].Seq != 3 {
		t.Fatalf("first appended seq = %d", out.Events[0].Seq)
	}

	// ?full=1: the old shape, full history and executions.
	var full advResp
	if code := e.call(t, "POST", "/api/v1/instances/"+snap.ID+"/advance?full=1", "owner",
		map[string]any{"to": "finalassembly"}, &full); code != 200 {
		t.Fatalf("advance full = %d", code)
	}
	if len(full.Executions) == 0 {
		t.Fatal("full mode lost executions")
	}
	if len(full.Events) < 6 || full.Events[0].Seq != 1 {
		t.Fatalf("full mode events = %d starting at %d", len(full.Events), full.Events[0].Seq)
	}
}

func TestInstanceTimelinePaging(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})
	for i := 0; i < 8; i++ {
		e.sys.Annotate(snap.ID, "owner", "note")
	}

	type pageResp struct {
		Entries []struct {
			Seq int `json:"seq"`
		} `json:"items"`
		Total     int  `json:"total"`
		OldestSeq int  `json:"oldest_seq"`
		Truncated bool `json:"truncated"`
		NextAfter int  `json:"next_after"`
	}
	var page pageResp
	if code := e.call(t, "GET", "/api/v1/instances/"+snap.ID+"/timeline?after=2&limit=3", "", nil, &page); code != 200 {
		t.Fatalf("timeline = %d", code)
	}
	if page.Total != 10 || len(page.Entries) != 3 || page.Entries[0].Seq != 3 || page.NextAfter != 5 {
		t.Fatalf("page = %+v", page)
	}
	_, hdr, body := rawGet(t, e.srv.URL, "/api/v1/instances/"+snap.ID+"/timeline?after=2&limit=3")
	assertNoAliases(t, hdr, body)
	// Defaults: whole history.
	page = pageResp{}
	e.call(t, "GET", "/api/v1/instances/"+snap.ID+"/timeline", "", nil, &page)
	if len(page.Entries) != 10 || page.NextAfter != 0 || page.Truncated {
		t.Fatalf("full page = %+v", page)
	}
	// Past the tail.
	page = pageResp{}
	e.call(t, "GET", "/api/v1/instances/"+snap.ID+"/timeline?after=50", "", nil, &page)
	if len(page.Entries) != 0 || page.Total != 10 {
		t.Fatalf("past-tail page = %+v", page)
	}
	// Errors: bad params and a missing instance.
	if code := e.call(t, "GET", "/api/v1/instances/"+snap.ID+"/timeline?after=-1", "", nil, nil); code != 400 {
		t.Fatalf("negative after = %d", code)
	}
	if code := e.call(t, "GET", "/api/v1/instances/"+snap.ID+"/timeline?limit=x", "", nil, nil); code != 400 {
		t.Fatalf("bad limit = %d", code)
	}
	if code := e.call(t, "GET", "/api/v1/instances/ghost/timeline", "", nil, nil); code != 404 {
		t.Fatalf("ghost timeline = %d", code)
	}
}

func TestAdminRuntimeReadPathCounters(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})

	var stats struct {
		EventsInMemory  int64 `json:"events_in_memory"`
		EventsTruncated int64 `json:"events_truncated"`
		InvocationsGCed int64 `json:"invocation_index_gced"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/runtime", "", nil, &stats); code != 200 {
		t.Fatalf("admin runtime = %d", code)
	}
	if stats.EventsInMemory < 2 {
		t.Fatalf("events_in_memory = %d", stats.EventsInMemory)
	}
	if stats.EventsTruncated != 0 || stats.InvocationsGCed != 0 {
		t.Fatalf("truncated=%d gced=%d on a fresh untruncated system",
			stats.EventsTruncated, stats.InvocationsGCed)
	}
}

func TestMonitorEndpoints(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("D1.%d", i+1)
		e.sys.Sims.Wiki.CreatePage(id, "o", "x")
		snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/" + id, Type: "mediawiki"}, "owner", nil)
		e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})
	}
	var sum struct {
		Total   int            `json:"total"`
		Active  int            `json:"active"`
		ByPhase map[string]int `json:"by_phase"`
	}
	e.call(t, "GET", "/api/v1/monitor/summary", "", nil, &sum)
	if sum.Total != 3 || sum.Active != 3 || sum.ByPhase["Elaboration"] != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	var rows []map[string]any
	e.call(t, "GET", "/api/v1/monitor/overview", "", nil, &rows)
	if len(rows) != 3 {
		t.Fatalf("overview = %d rows", len(rows))
	}
	e.clock.Advance(31 * 24 * time.Hour)
	var late []map[string]any
	e.call(t, "GET", "/api/v1/monitor/late", "", nil, &late)
	if len(late) != 3 {
		t.Fatalf("late = %d rows", len(late))
	}
	if code := e.call(t, "GET", "/api/v1/monitor/instances/ghost/timeline", "", nil, nil); code != 404 {
		t.Fatalf("ghost timeline = %d", code)
	}
}

func TestWidgetEndpoints(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{})

	resp, err := http.Get(e.srv.URL + "/widgets/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(html), "gelee-widget") {
		t.Fatalf("widget HTML = %d:\n%s", resp.StatusCode, html)
	}
	var view map[string]any
	if code := e.call(t, "GET", "/widgets/"+snap.ID+"/json", "", nil, &view); code != 200 {
		t.Fatalf("widget JSON = %d", code)
	}
	if view["current"] != "elaboration" {
		t.Fatalf("view = %v", view)
	}
	resp, _ = http.Get(e.srv.URL + "/widgets/" + snap.ID + "/feed")
	feed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(feed), "<rss") {
		t.Fatalf("feed = %s", feed)
	}
	resp, _ = http.Get(e.srv.URL + "/widgets/ghost")
	if resp.StatusCode != 404 {
		t.Fatalf("ghost widget = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSOAPAdvanceAndGet(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)

	envelope := fmt.Sprintf(`<?xml version="1.0"?>
	<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body>
	  <advance xmlns="urn:gelee:lifecycle">
	    <instanceId>%s</instanceId><to>elaboration</to><actor>owner</actor>
	  </advance>
	</Body></Envelope>`, snap.ID)
	resp, err := http.Post(e.srv.URL+"/soap", "text/xml", strings.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("SOAP advance = %d: %s", resp.StatusCode, body)
	}
	s := string(body)
	for _, want := range []string{"instanceState", "<current>elaboration</current>", "<state>active</state>"} {
		if !strings.Contains(s, want) {
			t.Errorf("SOAP response missing %q:\n%s", want, s)
		}
	}

	getEnv := fmt.Sprintf(`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body>
	  <getInstance xmlns="urn:gelee:lifecycle"><instanceId>%s</instanceId></getInstance>
	</Body></Envelope>`, snap.ID)
	resp, _ = http.Post(e.srv.URL+"/soap", "text/xml", strings.NewReader(getEnv))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "<current>elaboration</current>") {
		t.Fatalf("SOAP get:\n%s", body)
	}

	// Fault paths.
	resp, _ = http.Post(e.srv.URL+"/soap", "text/xml", strings.NewReader("<Envelope xmlns=\"http://schemas.xmlsoap.org/soap/envelope/\"><Body/></Envelope>"))
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 500 || !strings.Contains(string(body), "Fault") {
		t.Fatalf("unknown op: %d %s", resp.StatusCode, body)
	}
	resp, _ = http.Post(e.srv.URL+"/soap", "text/xml", strings.NewReader("not xml"))
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("malformed envelope = %d", resp.StatusCode)
	}
}

func TestAuthRequired(t *testing.T) {
	e := newEnv(t, true)
	e.sys.AddUser(gelee.User{Name: "coordinator"})

	model := scenario.QualityPlan()
	data, _ := json.Marshal(model)

	// No user header → 401.
	resp, err := http.Post(e.srv.URL+"/api/v1/models", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous define = %d", resp.StatusCode)
	}
	// Unknown user → 401.
	req, _ := http.NewRequest("POST", e.srv.URL+"/api/v1/models", bytes.NewReader(data))
	req.Header.Set(httpapi.UserHeader, "nobody")
	req.Header.Set("Content-Type", "application/json")
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown user define = %d", resp.StatusCode)
	}
	// Known user → 201.
	if code := e.call(t, "POST", "/api/v1/models", "coordinator", model, nil); code != http.StatusCreated {
		t.Fatalf("known user define = %d", code)
	}
	// Reads stay open.
	if code := e.call(t, "GET", "/api/v1/models", "", nil, nil); code != 200 {
		t.Fatalf("anonymous list = %d", code)
	}
}

func TestDefineModelValidationErrors(t *testing.T) {
	e := newEnv(t, false)
	// Invalid JSON.
	resp, _ := http.Post(e.srv.URL+"/api/v1/models", "application/json", strings.NewReader("{"))
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON = %d", resp.StatusCode)
	}
	// Structurally invalid model (duplicate phases).
	bad := `{"URI":"urn:x","Name":"x","Phases":[{"ID":"a","Name":"A"},{"ID":"a","Name":"A2"}]}`
	resp, _ = http.Post(e.srv.URL+"/api/v1/models", "application/json", strings.NewReader(bad))
	resp.Body.Close()
	if resp.StatusCode != 422 {
		t.Fatalf("invalid model = %d", resp.StatusCode)
	}
	// Unknown model fetch. The removed query route /models/one?uri=U
	// names a model "one", whatever U is.
	for _, path := range []string{"/api/v1/models/" + url.PathEscape("urn:ghost"), "/api/v1/models/one?uri=urn:ghost"} {
		resp, _ = http.Get(e.srv.URL + path)
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("unknown model %s = %d", path, resp.StatusCode)
		}
	}
}

func TestInstanceErrorsOverAPI(t *testing.T) {
	e := newEnv(t, false)
	if code := e.call(t, "GET", "/api/v1/instances/li-999999", "", nil, nil); code != 404 {
		t.Fatalf("missing instance = %d", code)
	}
	if code := e.call(t, "POST", "/api/v1/instances/li-999999/advance", "u", map[string]any{"to": "x"}, nil); code != 404 {
		t.Fatalf("advance missing = %d", code)
	}
	// Instantiate with unknown model URI.
	if code := e.call(t, "POST", "/api/v1/instances", "u", map[string]any{
		"model_uri": "urn:ghost",
		"resource":  map[string]string{"uri": "u", "type": "t"},
	}, nil); code != 400 {
		t.Fatalf("unknown model instantiate = %d", code)
	}
	// Advance to a phase outside the model → 409.
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D9.9", "o", "x")
	snap, _ := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D9.9", Type: "mediawiki"}, "owner", nil)
	if code := e.call(t, "POST", "/api/v1/instances/"+snap.ID+"/advance", "owner",
		map[string]any{"to": "nonexistent-phase"}, nil); code != 409 {
		t.Fatalf("unknown phase = %d", code)
	}
}

func TestCredentialsNeverLeak(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, err := e.sys.Instantiate(model.URI,
		gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki",
			Credentials: map[string]string{"password": "hunter2"}},
		"owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := http.Get(e.srv.URL + "/api/v1/instances/" + snap.ID)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "hunter2") {
		t.Fatal("resource credentials leaked over the API")
	}
	resp, _ = http.Get(e.srv.URL + "/api/v1/instances")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "hunter2") {
		t.Fatal("resource credentials leaked in the list view")
	}
}

func TestAdminStoreStats(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)

	var stats struct {
		Engine struct {
			Engine  string `json:"engine"`
			State   string `json:"state"`
			Appends uint64 `json:"appends"`
		} `json:"engine"`
		Shards int            `json:"shards"`
		Repos  map[string]int `json:"repos"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/store", "", nil, &stats); code != 200 {
		t.Fatalf("admin store stats = %d", code)
	}
	if stats.Engine.Engine != "memory" || stats.Engine.State != "running" {
		t.Fatalf("engine = %+v", stats.Engine)
	}
	if stats.Shards <= 0 {
		t.Fatalf("shards = %d", stats.Shards)
	}
	if stats.Repos["models"] != 1 {
		t.Fatalf("repos = %v, want models=1", stats.Repos)
	}
	if stats.Engine.Appends == 0 {
		t.Fatal("defining a model journaled nothing")
	}
}

// TestAdminLogPage: the cursor endpoint over the execution log pages
// forward by sequence number and reports whether more history remains.
func TestAdminLogPage(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	ref := gelee.Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	snap, err := e.sys.Instantiate(model.URI, ref, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.sys.Advance(snap.ID, "internalreview", "owner", gelee.AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	total := e.sys.ExecutionLog().Len()
	if total < 3 {
		t.Fatalf("expected a few log entries, got %d", total)
	}

	type page struct {
		Entries []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		} `json:"items"`
		Total     int    `json:"total"`
		NextAfter uint64 `json:"next_after"`
	}
	var first page
	code, hdr, body := rawGet(t, e.srv.URL, "/api/v1/admin/log?limit=2")
	if code != 200 {
		t.Fatalf("admin log page = %d", code)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	assertNoAliases(t, hdr, body)
	if len(first.Entries) != 2 || first.Total != total {
		t.Fatalf("first page = %+v, want 2 entries of %d", first, total)
	}
	if first.NextAfter != first.Entries[1].Seq {
		t.Fatalf("cursor next_after = %d, want last seq %d", first.NextAfter, first.Entries[1].Seq)
	}
	// Walk the cursor to the end; pages must cover the log exactly once.
	seen := len(first.Entries)
	cursor := first.NextAfter
	for cursor != 0 {
		var p page
		path := fmt.Sprintf("/api/v1/admin/log?after=%d&limit=2", cursor)
		if code := e.call(t, "GET", path, "", nil, &p); code != 200 {
			t.Fatalf("admin log page after %d = %d", cursor, code)
		}
		for _, en := range p.Entries {
			if en.Seq <= cursor {
				t.Fatalf("page after %d returned seq %d", cursor, en.Seq)
			}
		}
		seen += len(p.Entries)
		cursor = p.NextAfter
	}
	if seen != total {
		t.Fatalf("cursor walk saw %d entries, log has %d", seen, total)
	}
	if code := e.call(t, "GET", "/api/v1/admin/log?after=oops", "", nil, nil); code != 400 {
		t.Fatalf("bad cursor = %d, want 400", code)
	}
}

func TestAdminRuntimeStats(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "owner", "text")
	ref := gelee.Ref{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"}
	for i := 0; i < 3; i++ {
		snap, err := e.sys.Instantiate(model.URI, ref, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		// internalreview carries actions, so the invocation index grows.
		if _, err := e.sys.Advance(snap.ID, "internalreview", "owner", gelee.AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	var stats struct {
		Shards       int   `json:"shards"`
		Instances    int   `json:"instances"`
		PerShard     []int `json:"per_shard"`
		Invocations  int   `json:"invocation_index"`
		ResourceKeys int   `json:"resource_index_keys"`
		ModelKeys    int   `json:"model_index_keys"`
		Population   struct {
			DueHeap int   `json:"aggregate_due_heap"`
			Rewinds int64 `json:"aggregate_rewinds"`
		} `json:"population_index"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/runtime", "", nil, &stats); code != 200 {
		t.Fatalf("admin runtime stats = %d", code)
	}
	if stats.Shards <= 0 || len(stats.PerShard) != stats.Shards {
		t.Fatalf("shards = %d, per_shard = %v", stats.Shards, stats.PerShard)
	}
	if stats.Instances != 3 {
		t.Fatalf("instances = %d, want 3", stats.Instances)
	}
	total := 0
	for _, n := range stats.PerShard {
		total += n
	}
	if total != stats.Instances {
		t.Fatalf("per_shard sums to %d, want %d", total, stats.Instances)
	}
	if stats.Invocations == 0 {
		t.Fatal("entering an action phase left the invocation index empty")
	}
	if stats.ResourceKeys != 1 || stats.ModelKeys != 1 {
		t.Fatalf("index keys = %d resources / %d models, want 1/1", stats.ResourceKeys, stats.ModelKeys)
	}

	// The cockpit aggregate's bookkeeping: all three instances wait in
	// the due heap for internalreview's day-40 deadline. A summary read
	// on day 41 sweeps them late; one on day 31 — the clock stepped
	// back — rewinds them to the heap.
	if stats.Population.DueHeap != 3 || stats.Population.Rewinds != 0 {
		t.Fatalf("aggregate due heap = %d, rewinds = %d before any summary, want 3/0",
			stats.Population.DueHeap, stats.Population.Rewinds)
	}
	var sum struct {
		Late int `json:"late"`
	}
	for _, step := range []struct {
		by         time.Duration
		late, heap int
		rewinds    int64
	}{
		{41 * 24 * time.Hour, 3, 0, 0},
		{-10 * 24 * time.Hour, 0, 3, 1},
	} {
		e.clock.Advance(step.by)
		if code := e.call(t, "GET", "/api/v1/monitor/summary", "", nil, &sum); code != 200 {
			t.Fatalf("summary = %d", code)
		}
		if code := e.call(t, "GET", "/api/v1/admin/runtime", "", nil, &stats); code != 200 {
			t.Fatalf("admin runtime stats = %d", code)
		}
		if sum.Late != step.late || stats.Population.DueHeap != step.heap || stats.Population.Rewinds != step.rewinds {
			t.Fatalf("clock moved %v: late = %d, due heap = %d, rewinds = %d; want %d/%d/%d",
				step.by, sum.Late, stats.Population.DueHeap, stats.Population.Rewinds,
				step.late, step.heap, step.rewinds)
		}
	}
}

// TestInstanceListPaging walks GET /api/v1/instances with the
// creation-seq cursor and expects small pages to tile the default
// first page exactly.
func TestInstanceListPaging(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	type pageResp struct {
		Instances []instanceJSON `json:"items"`
		Total     int            `json:"total"`
		NextAfter int64          `json:"next_after"`
	}
	var whole pageResp
	if code := e.call(t, "GET", "/api/v1/instances", "", nil, &whole); code != 200 {
		t.Fatalf("default page = %d", code)
	}
	flat := whole.Instances
	if len(flat) != n || whole.Total != n || whole.NextAfter != 0 {
		t.Fatalf("default page has %d instances, total %d, next %d", len(flat), whole.Total, whole.NextAfter)
	}

	var walked []string
	after := int64(0)
	pages := 0
	for {
		var page pageResp
		path := fmt.Sprintf("/api/v1/instances?after=%d&limit=3", after)
		if code := e.call(t, "GET", path, "", nil, &page); code != 200 {
			t.Fatalf("paged list = %d", code)
		}
		if page.Total != n {
			t.Fatalf("total = %d, want %d", page.Total, n)
		}
		for _, in := range page.Instances {
			walked = append(walked, in.ID)
		}
		pages++
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
	if pages != 3 || len(walked) != n {
		t.Fatalf("walked %d pages, %d instances", pages, len(walked))
	}
	for i := range flat {
		if walked[i] != flat[i].ID {
			t.Fatalf("page order diverged at %d: %s vs %s", i, walked[i], flat[i].ID)
		}
	}
	// Bad cursors are rejected.
	if code := e.call(t, "GET", "/api/v1/instances?after=-1", "", nil, nil); code != 400 {
		t.Fatalf("negative cursor = %d", code)
	}
	if code := e.call(t, "GET", "/api/v1/instances?limit=x", "", nil, nil); code != 400 {
		t.Fatalf("bad limit = %d", code)
	}
}

// TestAdminPersistenceStats: the admin endpoints surface the
// durability seam — runtime recovery counters and the instance
// journal's engine stats.
func TestAdminPersistenceStats(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	mk := func() *env {
		sys, err := gelee.New(gelee.Options{
			DataDir: dir, Clock: clock, EmbeddedPlugins: true,
			SyncActions: true, PersistInstances: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(sys.HTTPHandler())
		t.Cleanup(func() { srv.Close(); sys.Close() })
		return &env{sys: sys, srv: srv, clock: clock}
	}
	e := mk()
	model := scenario.QualityPlan()
	e.sys.DefineModel("", model)
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.sys.Advance(snap.ID, "elaboration", "owner", gelee.AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}

	type persistence struct {
		Enabled   bool  `json:"enabled"`
		Records   int64 `json:"journal_records"`
		Errors    int64 `json:"journal_errors"`
		Recovered struct {
			Instances int   `json:"instances"`
			Records   int64 `json:"records"`
		} `json:"recovered"`
	}
	var stats struct {
		Persistence persistence `json:"persistence"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/runtime", "", nil, &stats); code != 200 {
		t.Fatalf("admin runtime = %d", code)
	}
	if !stats.Persistence.Enabled || stats.Persistence.Records < 2 || stats.Persistence.Errors != 0 {
		t.Fatalf("persistence stats = %+v", stats.Persistence)
	}
	var ss struct {
		Instances *struct {
			Engine  string `json:"engine"`
			Appends uint64 `json:"appends"`
		} `json:"instances"`
	}
	if code := e.call(t, "GET", "/api/v1/admin/store", "", nil, &ss); code != 200 {
		t.Fatalf("admin store = %d", code)
	}
	if ss.Instances == nil || ss.Instances.Appends < 2 {
		t.Fatalf("store instance stats = %+v", ss.Instances)
	}
	e.sys.Close()
	e.srv.Close()

	// After a restart the recovery section reports the rebuilt state.
	e2 := mk()
	var stats2 struct {
		Persistence persistence `json:"persistence"`
	}
	if code := e2.call(t, "GET", "/api/v1/admin/runtime", "", nil, &stats2); code != 200 {
		t.Fatalf("admin runtime after restart = %d", code)
	}
	if stats2.Persistence.Recovered.Instances != 1 || stats2.Persistence.Recovered.Records < 2 {
		t.Fatalf("recovered stats = %+v", stats2.Persistence)
	}
}

// TestTimelineBackfillOverAPI: the timeline endpoint serves pages
// older than the in-memory ring from the journaled execution log.
func TestTimelineBackfillOverAPI(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys, err := gelee.New(gelee.Options{
		Clock: clock, EmbeddedPlugins: true, SyncActions: true,
		MaxEventsInMemory: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.HTTPHandler())
	t.Cleanup(func() { srv.Close(); sys.Close() })
	e := &env{sys: sys, srv: srv, clock: clock}

	model := scenario.QualityPlan()
	sys.DefineModel("", model)
	sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, err := sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	const notes = 30
	for i := 0; i < notes; i++ {
		if err := sys.Annotate(snap.ID, "owner", fmt.Sprintf("note %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var page struct {
		Entries []struct {
			Seq int `json:"seq"`
		} `json:"items"`
		Total      int  `json:"total"`
		Truncated  bool `json:"truncated"`
		Backfilled int  `json:"backfilled"`
	}
	if code := e.call(t, "GET", "/api/v1/instances/"+snap.ID+"/timeline?limit=12", "", nil, &page); code != 200 {
		t.Fatalf("timeline = %d", code)
	}
	if page.Truncated || page.Backfilled == 0 {
		t.Fatalf("page not backfilled: %+v", page)
	}
	if len(page.Entries) != 12 || page.Entries[0].Seq != 1 {
		t.Fatalf("backfilled page shape: %+v", page)
	}
	if page.Total != notes+1 {
		t.Fatalf("total = %d, want %d", page.Total, notes+1)
	}
}
