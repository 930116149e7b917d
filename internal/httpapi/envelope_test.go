package httpapi_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/scenario"
)

// rawGet issues a GET and returns status, headers and body.
func rawGet(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// assertNoAliases fails if a page envelope carries one of the field
// names the paged collections had before {items, total, next_after},
// or the Deprecation header that used to announce them.
func assertNoAliases(t *testing.T, hdr http.Header, body []byte) {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["items"]; !ok {
		t.Fatalf("page envelope has no items: %s", body)
	}
	for _, alias := range []string{"instances", "entries", "next", "more"} {
		if _, ok := fields[alias]; ok {
			t.Fatalf("page envelope still carries the %q alias", alias)
		}
	}
	if hdr.Get("Deprecation") != "" {
		t.Fatal("page envelope still announces Deprecation")
	}
}

// TestStructuredErrorsEveryRoute drives one failing request through
// every fallible route and asserts the uniform error body: JSON with
// a stable code and a message, and no removed "error" alias. Routes
// with no failing input (ping, the bare list/browse/summary/health
// reads) have nothing to assert; POST /soap answers with SOAP faults
// by protocol, not JSON.
func TestStructuredErrorsEveryRoute(t *testing.T) {
	e := newEnv(t, true) // auth on: missing X-Gelee-User is the uniform 401
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int // 0 = any 4xx/5xx
	}{
		{"define model unauthorized", "POST", "/api/v1/models", "<model/>", 401},
		{"model by query missing", "GET", "/api/v1/models/one?uri=urn:ghost", "", 404},
		{"model by path missing", "GET", "/api/v1/models/" + url.PathEscape("urn:ghost"), "", 404},
		{"propagate unauthorized", "POST", "/api/v1/models/propagate", "{}", 401},
		{"register action unauthorized", "POST", "/api/v1/actions", "{}", 401},
		{"instances bad state filter", "GET", "/api/v1/instances?state=bogus", "", 400},
		{"instances bad late filter", "GET", "/api/v1/instances?late=maybe", "", 400},
		{"instances bad cursor", "GET", "/api/v1/instances?after=x", "", 400},
		{"instantiate unauthorized", "POST", "/api/v1/instances", "{}", 401},
		{"instance missing", "GET", "/api/v1/instances/ghost", "", 404},
		{"instance timeline missing", "GET", "/api/v1/instances/ghost/timeline", "", 0},
		{"advance unauthorized", "POST", "/api/v1/instances/ghost/advance", "{}", 401},
		{"annotate unauthorized", "POST", "/api/v1/instances/ghost/annotations", "{}", 401},
		{"bind unauthorized", "POST", "/api/v1/instances/ghost/bindings", "{}", 401},
		{"migrate unauthorized", "POST", "/api/v1/instances/ghost/migrate", "{}", 401},
		{"callback bad body", "POST", "/api/v1/callbacks/ghost", "not json", 400},
		{"admin store unauthorized", "GET", "/api/v1/admin/store", "", 401},
		{"admin runtime unauthorized", "GET", "/api/v1/admin/runtime", "", 401},
		{"admin log unauthorized", "GET", "/api/v1/admin/log", "", 401},
		{"admin alerts unauthorized", "GET", "/api/v1/admin/alerts", "", 401},
		{"admin alert stream unauthorized", "GET", "/api/v1/admin/alerts/stream", "", 401},
		{"monitor overview bad filter", "GET", "/api/v1/monitor/overview?late=x", "", 400},
		{"monitor late bad filter", "GET", "/api/v1/monitor/late?state=bogus", "", 400},
		{"monitor timeline missing", "GET", "/api/v1/monitor/instances/ghost/timeline", "", 404},
		{"widget html missing", "GET", "/widgets/ghost", "", 0},
		{"widget json missing", "GET", "/widgets/ghost/json", "", 0},
		{"widget feed missing", "GET", "/widgets/ghost/feed", "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rd io.Reader
			if tc.body != "" {
				rd = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, e.srv.URL+tc.path, rd)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if tc.want != 0 && resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.want, data)
			}
			if resp.StatusCode < 400 {
				t.Fatalf("status = %d, want an error (%s)", resp.StatusCode, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("error content type = %q, body %s", ct, data)
			}
			var apiErr struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			}
			if err := json.Unmarshal(data, &apiErr); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, data)
			}
			if apiErr.Code == "" || apiErr.Message == "" {
				t.Fatalf("error body missing code/message: %s", data)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(data, &fields); err != nil {
				t.Fatal(err)
			}
			if _, ok := fields["error"]; ok {
				t.Fatalf("error body still carries the removed error alias: %s", data)
			}
		})
	}
}

// TestModelByPathRoute: models are addressed by path-escaped URI only;
// the removed query-parameter route /models/one?uri=U now names a
// model whose URI is "one".
func TestModelByPathRoute(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}

	code, hdr, body := rawGet(t, e.srv.URL, "/api/v1/models/"+url.PathEscape(model.URI))
	if code != 200 {
		t.Fatalf("GET by path = %d: %s", code, body)
	}
	if hdr.Get("Deprecation") != "" {
		t.Fatal("path route must not be marked deprecated")
	}
	var view map[string]any
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view["URI"] != model.URI {
		t.Fatalf("path route returned %v", view["URI"])
	}

	// XML round-trip works on the path route too.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/models/"+url.PathEscape(model.URI)+"?format=xml")
	if code != 200 || !bytes.Contains(body, []byte("<")) {
		t.Fatalf("XML by path = %d: %s", code, body)
	}

	// The removed query route resolves as a model named "one": absent
	// here, so 404 with no Deprecation header, whatever ?uri= says.
	code, hdr, body = rawGet(t, e.srv.URL, "/api/v1/models/one?uri="+url.QueryEscape(model.URI))
	if code != 404 || !bytes.Contains(body, []byte(`no model \"one\"`)) {
		t.Fatalf("GET models/one = %d: %s, want 404 for a model named one", code, body)
	}
	if hdr.Get("Deprecation") != "" {
		t.Fatal("models/one still announces Deprecation")
	}
}

// TestInstancesEnvelopeAndFilters: GET /instances answers with the
// uniform {items,total,next_after} envelope, with or without
// parameters and without the removed instances alias, and the filter
// params are pushed down to the runtime indexes.
func TestInstancesEnvelopeAndFilters(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	e.sys.Sims.GDocs.Create("D2.1", "Requirements", "owner", "draft")
	for i := 0; i < 4; i++ {
		if _, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://docs.liquidpub.org/docs/D2.1", Type: "gdoc"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}

	type page struct {
		Items     []instanceJSON `json:"items"`
		Total     int            `json:"total"`
		NextAfter int64          `json:"next_after"`
	}

	// Resource filter rides the by-resource index: match count as total.
	code, hdr, body := rawGet(t, e.srv.URL, "/api/v1/instances?resource="+url.QueryEscape("http://wiki/D1.1"))
	if code != 200 {
		t.Fatalf("filtered list = %d: %s", code, body)
	}
	var p page
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 4 || p.Total != 4 {
		t.Fatalf("resource filter: %d items, total %d, want 4/4", len(p.Items), p.Total)
	}
	assertNoAliases(t, hdr, body)

	// Filters compose with paging: walk the gdoc matches two at a time.
	var walked int
	after := int64(0)
	for {
		code, _, body := rawGet(t, e.srv.URL,
			fmt.Sprintf("/api/v1/instances?resource=%s&after=%d&limit=2",
				url.QueryEscape("http://docs.liquidpub.org/docs/D2.1"), after))
		if code != 200 {
			t.Fatalf("filtered page = %d", code)
		}
		var fp page
		if err := json.Unmarshal(body, &fp); err != nil {
			t.Fatal(err)
		}
		walked += len(fp.Items)
		if fp.NextAfter == 0 {
			break
		}
		after = fp.NextAfter
	}
	if walked != 3 {
		t.Fatalf("filtered walk saw %d instances, want 3", walked)
	}

	// Model + state filters: everything here is active.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/instances?model="+url.QueryEscape(model.URI)+"&state=active")
	if code != 200 {
		t.Fatalf("model filter = %d", code)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 7 {
		t.Fatalf("model+state filter: %d items, want 7", len(p.Items))
	}
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/instances?state=completed")
	if code != 200 {
		t.Fatalf("state filter = %d", code)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Items) != 0 {
		t.Fatalf("completed filter: %d items, want 0", len(p.Items))
	}

	// Monitor overview takes the same pushdown params.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/monitor/overview?resource="+url.QueryEscape("http://wiki/D1.1"))
	if code != 200 {
		t.Fatalf("filtered overview = %d", code)
	}
	var rows []map[string]any
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("filtered overview rows = %d, want 4", len(rows))
	}
	// No instance is late yet.
	code, _, body = rawGet(t, e.srv.URL, "/api/v1/monitor/late?resource="+url.QueryEscape("http://wiki/D1.1"))
	if code != 200 {
		t.Fatalf("filtered late = %d", code)
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("late rows = %d, want 0", len(rows))
	}

	// The parameterless call is the first page in the same envelope.
	code, hdr, body = rawGet(t, e.srv.URL, "/api/v1/instances")
	if code != 200 {
		t.Fatalf("bare list = %d", code)
	}
	p = page{}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("bare list is not a page envelope: %v (%s)", err, body[:min(len(body), 80)])
	}
	if len(p.Items) != 7 || p.Total != 7 || p.NextAfter != 0 {
		t.Fatalf("bare list: %d items, total %d, next %d, want 7/7/0", len(p.Items), p.Total, p.NextAfter)
	}
	assertNoAliases(t, hdr, body)
}

// TestPagedRoutesBounded: every cursor-paged route bounds its page —
// 100 items without ?limit=, at most 1000 with any limit — and hands
// out the cursor of the rest, over a population, a history and an
// execution log each just over 1000 long.
func TestPagedRoutesBounded(t *testing.T) {
	e := newEnv(t, false)
	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	const n = 1005
	var id string
	for i := 0; i < n; i++ {
		snap, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		id = snap.ID
	}
	for i := 0; i < n; i++ {
		if err := e.sys.Annotate(id, "owner", "note"); err != nil {
			t.Fatal(err)
		}
	}
	// The execution log is the definitions audit trail: each
	// redefinition appends a model-defined entry.
	for i := 0; i < n; i++ {
		if err := e.sys.DefineModel("", model); err != nil {
			t.Fatal(err)
		}
	}

	routes := []string{
		"/api/v1/instances",
		"/api/v1/instances/" + id + "/timeline",
		"/api/v1/monitor/instances/" + id + "/timeline",
		"/api/v1/admin/log",
	}
	for _, route := range routes {
		for _, tc := range []struct {
			query string
			want  int
		}{
			{"", 100},
			{"?limit=5000", 1000},
		} {
			code, _, body := rawGet(t, e.srv.URL, route+tc.query)
			if code != 200 {
				t.Fatalf("GET %s%s = %d: %s", route, tc.query, code, body)
			}
			var p struct {
				Items     []json.RawMessage `json:"items"`
				NextAfter int64             `json:"next_after"`
			}
			if err := json.Unmarshal(body, &p); err != nil {
				t.Fatal(err)
			}
			if len(p.Items) != tc.want || p.NextAfter == 0 {
				t.Fatalf("GET %s%s: %d items, next_after %d, want %d items and a cursor",
					route, tc.query, len(p.Items), p.NextAfter, tc.want)
			}
		}
	}
}

// TestEmptyPagesAreArrays: every paged route sends an empty page as
// "items":[], never null — the instance list unfiltered and filtered,
// both timelines past their tail, and the admin log empty and past its
// tail.
func TestEmptyPagesAreArrays(t *testing.T) {
	e := newEnv(t, false)
	wantEmpty := func(path string) {
		t.Helper()
		code, _, body := rawGet(t, e.srv.URL, path)
		if code != 200 {
			t.Fatalf("GET %s = %d: %s", path, code, body)
		}
		var p struct {
			Items json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if string(p.Items) != "[]" {
			t.Fatalf("GET %s: items %s, want []", path, p.Items)
		}
	}
	if n := e.sys.ExecutionLog().Len(); n != 0 {
		t.Fatalf("fresh execution log holds %d entries", n)
	}
	wantEmpty("/api/v1/instances")
	wantEmpty("/api/v1/admin/log")

	model := scenario.QualityPlan()
	if err := e.sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	e.sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, err := e.sys.Instantiate(model.URI, gelee.Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	wantEmpty("/api/v1/instances?model=" + url.QueryEscape("urn:gelee:models:none"))
	wantEmpty("/api/v1/instances?state=completed")
	wantEmpty("/api/v1/instances/" + snap.ID + "/timeline?after=99")
	wantEmpty("/api/v1/monitor/instances/" + snap.ID + "/timeline?after=99")
	wantEmpty("/api/v1/admin/log?after=" + fmt.Sprint(e.sys.ExecutionLog().Len()))
}

// TestDefineModelNullPhase: a model body whose phase list holds a null
// is a validation error — a structured 4xx — not a panic.
func TestDefineModelNullPhase(t *testing.T) {
	e := newEnv(t, false)
	body := `{"URI":"urn:null-phase","Name":"n","Phases":[null],"Transitions":[{"From":"BEGIN","To":"a"}]}`
	resp, err := http.Post(e.srv.URL+"/api/v1/models", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var apiErr struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	if resp.StatusCode < 400 || resp.StatusCode >= 500 || json.Unmarshal(data, &apiErr) != nil || apiErr.Code == "" {
		t.Fatalf("null phase answered %d %s, want a structured 4xx", resp.StatusCode, data)
	}
	if !strings.Contains(apiErr.Message, "null") {
		t.Fatalf("error %q does not name the null phase", apiErr.Message)
	}
	if _, ok := e.sys.Model("urn:null-phase"); ok {
		t.Fatal("model with a null phase was stored")
	}
}
