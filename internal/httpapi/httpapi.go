// Package httpapi exposes the lifecycle manager over HTTP: the
// SOAP/REST interfaces of Fig. 2 through which the designer GUI,
// execution widgets, monitoring cockpit and resource plug-ins talk to
// the kernel.
//
// REST resources (JSON unless stated):
//
//	GET  /api/v1/ping                     liveness
//	POST /api/v1/models                   define model (JSON or Table I XML)
//	GET  /api/v1/models                   list models
//	GET  /api/v1/models/{uri...}          fetch by path-escaped model URI
//	                                      (?format=xml → Table I)
//	POST /api/v1/models/propagate?uri=U   push new version to instances
//	GET  /api/v1/actions[?resource_type=] browse action library (Fig. 3)
//	POST /api/v1/actions                  register action type (+impls)
//	POST /api/v1/instances                instantiate
//	GET  /api/v1/instances                paged list (summary view, no
//	                                      histories): ?after=SEQ&limit=N pages
//	                                      by creation seq off the runtime's
//	                                      population index; ?resource=U
//	                                      &model=U&state=S&late=1 filters,
//	                                      pushed down to the runtime's
//	                                      secondary indexes
//	GET  /api/v1/instances/{id}           snapshot (full history)
//	GET  /api/v1/instances/{id}/timeline  paged history (?after=S&limit=N);
//	                                      pages older than the in-memory ring
//	                                      are backfilled from the journaled
//	                                      execution log
//	POST /api/v1/instances/{id}/advance   move the token; responds with the
//	                                      summary + only the events this move
//	                                      appended, unless ?full=1
//	POST /api/v1/instances/{id}/annotations
//	POST /api/v1/instances/{id}/bindings  inst-stage parameter values
//	POST /api/v1/instances/{id}/migrate   accept/reject a pending change
//	                                      (accept honors ?full=1 like advance)
//	POST /api/v1/callbacks/{inv}          action status callback (no auth)
//	GET  /api/v1/admin/store              data-tier engine stats
//	GET  /api/v1/admin/runtime            runtime shard/index stats
//	GET  /api/v1/admin/log                paged execution log (?after=&limit=)
//	GET  /api/v1/admin/health             aggregated resilience report
//	                                      (no auth; 503 when read-only)
//	GET  /api/v1/admin/alerts[?limit=N]   recent threshold alerts
//	GET  /api/v1/admin/alerts/stream      live alert feed (SSE)
//	GET  /api/v1/monitor/summary|overview|late
//	                                      overview and late accept the same
//	                                      ?resource=&model=&state=&late=1
//	                                      filters as the instance list
//	GET  /api/v1/monitor/instances/{id}/timeline
//	GET  /widgets/{id}                    HTML widget (Fig. 4)
//	GET  /widgets/{id}/json               widget payload
//	GET  /widgets/{id}/feed               RSS feed (pipes, §V.C)
//	POST /soap                            SOAP 1.1 subset (see soap.go)
//
// # Paging envelope
//
// Every cursor-paged collection — GET /api/v1/instances,
// GET /api/v1/instances/{id}/timeline,
// GET /api/v1/monitor/instances/{id}/timeline and GET /api/v1/admin/log
// — shares one envelope shape: {items, total, next_after}. items is the
// page and next_after the cursor of the following page (absent at the
// tail; pass it back as ?after=). Every page is bounded: without
// ?limit= it holds at most 100 items, and a larger limit than 1000 is
// clamped to 1000. On the instance list, total is the
// number of matches with seq > after, except that an unfiltered page
// reports the whole population and a filter naming neither resource
// nor model reports 0 (unknown); the timelines report the events ever
// recorded on the instance and the admin log the entries ever appended.
//
// # Errors
//
// Every 4xx/5xx response from every route is a JSON object
// {code, message} — code a stable machine-readable string
// (bad_request, unauthorized, forbidden, not_found, conflict, invalid,
// overloaded, read_only, internal, not_implemented, unavailable),
// message the human-readable detail. Backoff rejections additionally
// carry retry_after_ms (mirrored in the Retry-After header) and
// read-only rejections mode:"read-only". SOAP faults are unaffected
// (SOAP 1.1 fault envelope).
//
// Authentication is the hosted-prototype scheme: the X-Gelee-User header
// names the acting user. With RequireAuth the header must name a known
// user; callbacks and public widgets stay open.
//
// Every mutating route (including callbacks and the SOAP advance) is
// gated by the resilience layer: under load shedding it answers 429
// with a Retry-After header and {"code":"overloaded","retry_after_ms"}
// body, and in read-only mode 503 with {"code":"read_only",
// "mode":"read-only"}. Reads are never gated — a degraded node keeps
// serving the cockpit.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/invoke"
	"github.com/liquidpub/gelee/internal/monitor"
	"github.com/liquidpub/gelee/internal/resilience"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/widget"
	"github.com/liquidpub/gelee/internal/xmlcodec"
)

// UserHeader names the acting user on authenticated routes.
const UserHeader = "X-Gelee-User"

// Backend is the kernel surface the HTTP layer drives — implemented by
// *gelee.System.
type Backend interface {
	DefineModel(actor string, m *core.Model) error
	// ModelView is the read-cache path: a shared value the handler only
	// marshals, never mutates — repeated fetches of a hot model skip
	// the defensive clone.
	ModelView(uri string) (*core.Model, bool)
	Models() []*core.Model
	Propagate(actor string, m *core.Model, note string) (int, error)

	ActionTypes(resourceType string) []actionlib.ActionType
	RegisterAction(actor string, at actionlib.ActionType, impls ...actionlib.Implementation) error

	Instantiate(modelURI string, ref resource.Ref, owner string, bindings map[string]map[string]string) (runtime.Snapshot, error)
	Advance(instID, toPhase, actor string, opts runtime.AdvanceOptions) (runtime.Snapshot, error)
	AdvanceSummary(instID, toPhase, actor string, opts runtime.AdvanceOptions) (runtime.MoveResult, error)
	Annotate(instID, actor, note string) error
	BindParams(instID, actor, actionURI string, values map[string]string) error
	AcceptChange(instID, actor, landing string) (runtime.Snapshot, error)
	AcceptChangeSummary(instID, actor, landing string) (runtime.MoveResult, error)
	RejectChange(instID, actor, note string) error
	Instance(id string) (runtime.Snapshot, bool)
	Summary(id string) (runtime.Summary, bool)
	// QuerySummaries is the instance-list page: resource/model URIs are
	// served from the runtime's secondary indexes, everything else from
	// the population index.
	QuerySummaries(f runtime.Filter, after int64, limit int) runtime.SummaryPage
	Report(up actionlib.StatusUpdate) error

	Monitor() *monitor.Monitor
	Widgets() *widget.Renderer
	StoreStats() store.Stats
	RuntimeStats() runtime.Stats
	ExecutionLogPage(after uint64, limit int) ([]store.LogEntry, error)
	// ExecutionLogLen is the number of entries ever appended to the
	// execution log (hot + archived) — the total of the admin-log page
	// envelope.
	ExecutionLogLen() int
	UserExists(name string) bool

	// Resilience surface: AdmitMutation gates every mutating route
	// (nil admits; resilience.ErrShed → 429, resilience.ErrReadOnly →
	// 503 — reads are never gated), HealthReport feeds the aggregated
	// admin health endpoint, RecentAlerts/SubscribeAlerts back the
	// alert list and SSE stream.
	AdmitMutation() error
	HealthReport() resilience.Report
	RecentAlerts(limit int) []resilience.Alert
	SubscribeAlerts(buf int) (<-chan resilience.Alert, func())
}

// Options configure the server.
type Options struct {
	// RequireAuth rejects mutating requests without a known user in the
	// UserHeader.
	RequireAuth bool
}

// Server is the HTTP front end.
type Server struct {
	b    Backend
	opts Options
	mux  *http.ServeMux
}

// New builds the server and its routing table.
func New(b Backend, opts Options) *Server {
	s := &Server{b: b, opts: opts, mux: http.NewServeMux()}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /api/v1/ping", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"gelee": "ok"})
	})

	// Design time. Mutating routes pass the resilience gate first —
	// shedding a request is cheaper than authenticating it.
	s.mux.HandleFunc("POST /api/v1/models", s.mutating(s.authed(s.handleDefineModel)))
	s.mux.HandleFunc("GET /api/v1/models", s.handleListModels)
	// Path-escaped model addressing.
	s.mux.HandleFunc("GET /api/v1/models/{uri...}", s.handleGetModel)
	s.mux.HandleFunc("POST /api/v1/models/propagate", s.mutating(s.authed(s.handlePropagate)))
	s.mux.HandleFunc("GET /api/v1/actions", s.handleBrowseActions)
	s.mux.HandleFunc("POST /api/v1/actions", s.mutating(s.authed(s.handleRegisterAction)))

	// Run time.
	s.mux.HandleFunc("POST /api/v1/instances", s.mutating(s.authed(s.handleInstantiate)))
	s.mux.HandleFunc("GET /api/v1/instances", s.handleListInstances)
	s.mux.HandleFunc("GET /api/v1/instances/{id}", s.handleGetInstance)
	s.mux.HandleFunc("GET /api/v1/instances/{id}/timeline", s.handleTimeline)
	s.mux.HandleFunc("POST /api/v1/instances/{id}/advance", s.mutating(s.authed(s.handleAdvance)))
	s.mux.HandleFunc("POST /api/v1/instances/{id}/annotations", s.mutating(s.authed(s.handleAnnotate)))
	s.mux.HandleFunc("POST /api/v1/instances/{id}/bindings", s.mutating(s.authed(s.handleBind)))
	s.mux.HandleFunc("POST /api/v1/instances/{id}/migrate", s.mutating(s.authed(s.handleMigrate)))

	// Callbacks are invoked by action implementations, not users. They
	// mutate instance state, so they pass the gate too — a shed or
	// read-only 429/503 tells the action service to retry its report.
	s.mux.HandleFunc("POST /api/v1/callbacks/{inv}", s.mutating(s.handleCallback))

	// Admin: data-tier engine health (append/flush counters, shard
	// count, per-repository sizes) and runtime health (instance-shard
	// occupancy, secondary-index sizes).
	s.mux.HandleFunc("GET /api/v1/admin/store", s.authed(s.handleStoreStats))
	s.mux.HandleFunc("GET /api/v1/admin/runtime", s.authed(s.handleRuntimeStats))
	// Execution-log pages: a seq cursor over unbounded history, cold
	// pages streamed from archive files on demand.
	s.mux.HandleFunc("GET /api/v1/admin/log", s.authed(s.handleExecLogPage))
	// Aggregated health for load balancers: 200 while mutations are
	// admitted, 503 in read-only mode. Deliberately unauthenticated —
	// probes don't carry user headers.
	s.mux.HandleFunc("GET /api/v1/admin/health", s.handleHealth)
	// Threshold alerts: recent ring + live SSE stream.
	s.mux.HandleFunc("GET /api/v1/admin/alerts", s.authed(s.handleAlerts))
	s.mux.HandleFunc("GET /api/v1/admin/alerts/stream", s.authed(s.handleAlertStream))

	// Monitoring cockpit.
	s.mux.HandleFunc("GET /api/v1/monitor/summary", s.handleMonitorSummary)
	s.mux.HandleFunc("GET /api/v1/monitor/overview", s.handleMonitorOverview)
	s.mux.HandleFunc("GET /api/v1/monitor/late", s.handleMonitorLate)
	s.mux.HandleFunc("GET /api/v1/monitor/instances/{id}/timeline", s.handleTimeline)

	// Widgets.
	s.mux.HandleFunc("GET /widgets/{id}", s.handleWidgetHTML)
	s.mux.HandleFunc("GET /widgets/{id}/json", s.handleWidgetJSON)
	s.mux.HandleFunc("GET /widgets/{id}/feed", s.handleWidgetFeed)

	// SOAP subset.
	s.mux.HandleFunc("POST /soap", s.handleSOAP)
}

// user extracts the acting user from the request.
func (s *Server) user(r *http.Request) string { return r.Header.Get(UserHeader) }

// authed wraps mutating handlers with the hosted-prototype auth check.
// mutating gates a write behind the backend's admission decision:
// read-only mode → 503 with a mode field, load shed → 429 with a
// Retry-After header. Reads never pass through here.
func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.b.AdmitMutation(); err != nil {
			writeAdmissionError(w, err)
			return
		}
		h(w, r)
	}
}

// writeAdmissionError renders a structured rejection body — never a
// generic 500, so clients can distinguish "back off and retry" from
// "this node stopped accepting writes".
func writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, resilience.ErrShed):
		ra := resilience.RetryAfterOf(err)
		if ra <= 0 {
			ra = time.Second
		}
		secs := int64((ra + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, apiError{
			Code:         "overloaded",
			Message:      err.Error(),
			RetryAfterMS: ra.Milliseconds(),
		})
	case errors.Is(err, resilience.ErrReadOnly):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, apiError{
			Code:    "read_only",
			Message: err.Error(),
			Mode:    "read-only",
		})
	default:
		writeError(w, http.StatusServiceUnavailable, err)
	}
}

func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.opts.RequireAuth {
			u := s.user(r)
			if u == "" || !s.b.UserExists(u) {
				writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or unknown %s header", UserHeader))
				return
			}
		}
		h(w, r)
	}
}

// ---- helpers -----------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// apiError is the structured shape of every 4xx/5xx response (see the
// package doc's Errors section): a stable machine-readable code, the
// human-readable message, and optional backoff/mode fields.
type apiError struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Mode         string `json:"mode,omitempty"`
}

// codeFor derives the stable error code from the HTTP status.
func codeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusUnprocessableEntity:
		return "invalid"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusNotImplemented:
		return "not_implemented"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	}
	if status >= 500 {
		return "internal"
	}
	return "bad_request"
}

// writeError renders the uniform structured error body; every handler's
// 4xx/5xx path funnels through here (or writeAdmissionError, which adds
// the backoff fields).
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{
		Code:    codeFor(status),
		Message: err.Error(),
	})
}

// statusFor maps kernel errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, runtime.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, runtime.ErrForbidden):
		return http.StatusForbidden
	case errors.Is(err, runtime.ErrUnknownPhase), errors.Is(err, runtime.ErrNoPending):
		return http.StatusConflict
	case core.IsValidation(err):
		return http.StatusUnprocessableEntity
	}
	var be *actionlib.BindingError
	if errors.As(err, &be) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// readBody caps request bodies at 4 MiB.
func readBody(r *http.Request) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r.Body, 4<<20))
}

func isXML(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return strings.Contains(ct, "xml")
}

// ---- payloads ----------------------------------------------------------------

// modelSummary is the list view of a model.
type modelSummary struct {
	URI     string   `json:"uri"`
	Name    string   `json:"name"`
	Version string   `json:"version"`
	Phases  []string `json:"phases"`
	Types   []string `json:"resource_types,omitempty"`
}

func toModelSummary(m *core.Model) modelSummary {
	return modelSummary{
		URI: m.URI, Name: m.Name, Version: m.Version.Number,
		Phases: m.PhaseIDs(), Types: m.ResourceTypes,
	}
}

// instancePayload is the JSON view of a snapshot (Snapshot itself keeps
// its model out of JSON).
type instancePayload struct {
	ID            string                    `json:"id"`
	ModelURI      string                    `json:"model_uri"`
	ModelName     string                    `json:"model_name"`
	Resource      resource.Ref              `json:"resource"`
	Owner         string                    `json:"owner"`
	State         string                    `json:"state"`
	Current       string                    `json:"current"`
	NextSuggested []string                  `json:"next_suggested"`
	Phases        []string                  `json:"phases"`
	Events        []runtime.Event           `json:"events,omitempty"`
	Executions    []runtime.ActionExecution `json:"executions,omitempty"`
	Pending       string                    `json:"pending_change,omitempty"`
	Unresolved    []string                  `json:"unresolved_actions,omitempty"`
}

func toInstancePayload(s runtime.Snapshot, full bool) instancePayload {
	p := instancePayload{
		ID:            s.ID,
		ModelURI:      s.ModelURI,
		ModelName:     s.Model.Name,
		Resource:      s.Resource,
		Owner:         s.Owner,
		State:         string(s.State),
		Current:       s.Current,
		NextSuggested: s.NextSuggested(),
		Phases:        s.Model.PhaseIDs(),
		Unresolved:    s.Unresolved,
	}
	p.Resource.Credentials = nil // never leak credentials over the API
	if s.Pending != nil {
		p.Pending = s.Pending.Summary
	}
	if full {
		p.Events = s.Events
		p.Executions = s.Executions
	}
	return p
}

// toSummaryPayload maps a runtime.Summary onto the same wire shape as
// the snapshot-backed payload with histories omitted.
func toSummaryPayload(sum runtime.Summary) instancePayload {
	p := instancePayload{
		ID:            sum.ID,
		ModelURI:      sum.ModelURI,
		ModelName:     sum.ModelName,
		Resource:      sum.Resource,
		Owner:         sum.Owner,
		State:         string(sum.State),
		Current:       sum.Current,
		NextSuggested: sum.NextSuggested,
		Phases:        sum.Phases,
		Unresolved:    sum.Unresolved,
		Pending:       sum.Pending,
	}
	p.Resource.Credentials = nil // never leak credentials over the API
	return p
}

// toMovePayload maps a copy-free move result onto the instance wire
// shape: the summary fields plus only the events the move appended (the
// executions list is available via GET /instances/{id} or ?full=1).
func toMovePayload(res runtime.MoveResult) instancePayload {
	p := toSummaryPayload(res.Summary)
	p.Events = res.Events
	return p
}

// wantFull reports the ?full=1 escape hatch back to the snapshot-backed
// response shape.
func wantFull(r *http.Request) bool { return r.URL.Query().Get("full") == "1" }

// ---- page envelopes ----------------------------------------------------------
//
// One cursor shape for every paged collection (see the package doc's
// Paging envelope section): {items, total, next_after}.

// instancesPage is the envelope of the instance list.
type instancesPage struct {
	Items []instancePayload `json:"items"`
	// Total is runtime.SummaryPage.Total: the matches with seq > after,
	// the whole population for an unfiltered page, and 0 (unknown) for
	// a filter naming neither resource nor model.
	Total     int   `json:"total"`
	NextAfter int64 `json:"next_after,omitempty"`
}

// timelinePage is the envelope of both timeline routes, wrapping the
// monitor's page with the uniform field names.
type timelinePage struct {
	Items     []monitor.TimelineEntry `json:"items"`
	Total     int                     `json:"total"`
	NextAfter int                     `json:"next_after,omitempty"`
	// OldestSeq/Truncated/Backfilled report ring truncation and
	// execution-log backfill, as before.
	OldestSeq  int  `json:"oldest_seq"`
	Truncated  bool `json:"truncated"`
	Backfilled int  `json:"backfilled,omitempty"`
}

func toTimelinePage(p monitor.TimelinePage) timelinePage {
	return timelinePage{
		Items:      p.Entries,
		Total:      p.Total,
		NextAfter:  p.NextAfter,
		OldestSeq:  p.OldestSeq,
		Truncated:  p.Truncated,
		Backfilled: p.Backfilled,
	}
}

// execLogPage is the envelope of the admin execution-log cursor.
type execLogPage struct {
	Items []store.LogEntry `json:"items"`
	// Total is the number of entries ever appended (hot + archived).
	Total     int    `json:"total"`
	NextAfter uint64 `json:"next_after,omitempty"`
}

// Page bounds of every cursor-paged route: a request without ?limit=
// gets defaultPageLimit items, and no page holds more than maxPageLimit.
const (
	defaultPageLimit = 100
	maxPageLimit     = 1000
)

// pageParams parses the cursor (?after=) and page size (?limit=) of a
// paged route and applies the page bounds: a missing or zero limit
// means defaultPageLimit, and a larger one than maxPageLimit is
// clamped to it.
func pageParams(q url.Values) (after int64, limit int, err error) {
	if after, err = queryInt64(q.Get("after")); err != nil {
		return 0, 0, fmt.Errorf("bad after: %w", err)
	}
	n, err := queryInt64(q.Get("limit"))
	if err != nil {
		return 0, 0, fmt.Errorf("bad limit: %w", err)
	}
	switch {
	case n == 0:
		return after, defaultPageLimit, nil
	case n > maxPageLimit:
		return after, maxPageLimit, nil
	}
	return after, int(n), nil
}

// parseFilter extracts the pushed-down population filter from the
// query: ?resource=URI, ?model=URI, ?state=active|completed, ?late=1.
func parseFilter(q url.Values) (f runtime.Filter, err error) {
	f.Resource = q.Get("resource")
	f.ModelURI = q.Get("model")
	switch st := q.Get("state"); st {
	case "":
	case string(runtime.StateActive), string(runtime.StateCompleted):
		f.State = runtime.State(st)
	default:
		return f, fmt.Errorf("bad state %q: want active or completed", st)
	}
	switch late := q.Get("late"); late {
	case "", "0", "false":
	case "1", "true":
		f.LateOnly = true
	default:
		return f, fmt.Errorf("bad late %q: want 1 or 0", q.Get("late"))
	}
	return f, nil
}

// ---- design-time handlers ------------------------------------------------------

func (s *Server) decodeModel(r *http.Request) (*core.Model, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	if isXML(r) || (len(body) > 0 && body[0] == '<') {
		return xmlcodec.UnmarshalModel(body)
	}
	var m core.Model
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("httpapi: decode model JSON: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (s *Server) handleDefineModel(w http.ResponseWriter, r *http.Request) {
	m, err := s.decodeModel(r)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if err := s.b.DefineModel(s.user(r), m); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, toModelSummary(m))
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	models := s.b.Models()
	out := make([]modelSummary, len(models))
	for i, m := range models {
		out[i] = toModelSummary(m)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleGetModel is the REST-conventional model fetch: the model URI
// rides the path, path-escaped (GET /api/v1/models/{uri...}).
func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	uri := r.PathValue("uri")
	m, ok := s.b.ModelView(uri)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no model %q", uri))
		return
	}
	if r.URL.Query().Get("format") == "xml" {
		out, err := xmlcodec.MarshalModel(m)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Write(out)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

func (s *Server) handlePropagate(w http.ResponseWriter, r *http.Request) {
	m, err := s.decodeModel(r)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	note := r.URL.Query().Get("note")
	n, err := s.b.Propagate(s.user(r), m, note)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"proposed_to": n})
}

func (s *Server) handleBrowseActions(w http.ResponseWriter, r *http.Request) {
	// Fig. 3: design time browses everything; passing resource_type
	// gives the run-time filtered view.
	types := s.b.ActionTypes(r.URL.Query().Get("resource_type"))
	writeJSON(w, http.StatusOK, types)
}

func (s *Server) handleRegisterAction(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var at actionlib.ActionType
	var impls []actionlib.Implementation
	if isXML(r) || (len(body) > 0 && body[0] == '<') {
		at, err = xmlcodec.UnmarshalActionType(body)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
	} else {
		var req struct {
			Type            actionlib.ActionType       `json:"type"`
			Implementations []actionlib.Implementation `json:"implementations"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode action registration: %w", err))
			return
		}
		at, impls = req.Type, req.Implementations
	}
	if err := s.b.RegisterAction(s.user(r), at, impls...); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"uri": at.URI})
}

// ---- run-time handlers ----------------------------------------------------------

func (s *Server) handleInstantiate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ModelURI string                       `json:"model_uri"`
		Resource resource.Ref                 `json:"resource"`
		Owner    string                       `json:"owner"`
		Bindings map[string]map[string]string `json:"bindings"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	owner := req.Owner
	if owner == "" {
		owner = s.user(r)
	}
	snap, err := s.b.Instantiate(req.ModelURI, req.Resource, owner, req.Bindings)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, toInstancePayload(snap, true))
}

func (s *Server) handleListInstances(w http.ResponseWriter, r *http.Request) {
	// The list view rides the runtime's summary path: no event-history
	// deep copies, served off the incrementally maintained population
	// index, with the filter params (?resource=&model=&state=&late=1)
	// pushed down to the runtime's secondary indexes.
	q := r.URL.Query()
	f, err := parseFilter(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	after, limit, err := pageParams(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	page := s.b.QuerySummaries(f, after, limit)
	items := make([]instancePayload, len(page.Summaries))
	for i, sum := range page.Summaries {
		items[i] = toSummaryPayload(sum)
	}
	writeJSON(w, http.StatusOK, instancesPage{
		Items:     items,
		Total:     page.Total,
		NextAfter: page.NextAfter,
	})
}

func (s *Server) handleGetInstance(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.b.Instance(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no instance %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, toInstancePayload(snap, true))
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		To         string                       `json:"to"`
		Annotation string                       `json:"annotation"`
		Bindings   map[string]map[string]string `json:"bindings"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := runtime.AdvanceOptions{
		Annotation:   req.Annotation,
		CallBindings: req.Bindings,
	}
	// Default response is the copy-free mode: the post-move summary plus
	// only the events this move appended. ?full=1 restores the full
	// history snapshot.
	if wantFull(r) {
		snap, err := s.b.Advance(r.PathValue("id"), req.To, s.user(r), opts)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toInstancePayload(snap, true))
		return
	}
	res, err := s.b.AdvanceSummary(r.PathValue("id"), req.To, s.user(r), opts)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, toMovePayload(res))
}

func (s *Server) handleAnnotate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Note string `json:"note"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.b.Annotate(r.PathValue("id"), s.user(r), req.Note); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"annotated": r.PathValue("id")})
}

func (s *Server) handleBind(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ActionURI string            `json:"action_uri"`
		Values    map[string]string `json:"values"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.b.BindParams(r.PathValue("id"), s.user(r), req.ActionURI, req.Values); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"bound": req.ActionURI})
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Decision string `json:"decision"` // "accept" | "reject"
		Landing  string `json:"landing"`
		Note     string `json:"note"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	switch req.Decision {
	case "accept":
		if wantFull(r) {
			snap, err := s.b.AcceptChange(r.PathValue("id"), s.user(r), req.Landing)
			if err != nil {
				writeError(w, statusFor(err), err)
				return
			}
			writeJSON(w, http.StatusOK, toInstancePayload(snap, true))
			return
		}
		res, err := s.b.AcceptChangeSummary(r.PathValue("id"), s.user(r), req.Landing)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toMovePayload(res))
	case "reject":
		if err := s.b.RejectChange(r.PathValue("id"), s.user(r), req.Note); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"rejected": r.PathValue("id")})
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decision must be accept or reject"))
	}
}

func (s *Server) handleCallback(w http.ResponseWriter, r *http.Request) {
	up, err := invoke.DecodeStatus(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if up.InvocationID == "" {
		up.InvocationID = r.PathValue("inv")
	}
	if up.InvocationID != r.PathValue("inv") {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("invocation id mismatch: body %q vs path %q", up.InvocationID, r.PathValue("inv")))
		return
	}
	if err := s.b.Report(up); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"received": up.InvocationID})
}

// ---- monitoring handlers ---------------------------------------------------------

func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.StoreStats())
}

func (s *Server) handleRuntimeStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.RuntimeStats())
}

// handleExecLogPage serves execution-log pages: ?after=<seq> resumes
// past a cursor, ?limit=<n> bounds the page (see pageParams). Cold
// history streams from archive files; a page entirely below the
// archived range touches at most one archive on disk. It reads one
// entry past the page so next_after is absent at the tail.
func (s *Server) handleExecLogPage(w http.ResponseWriter, r *http.Request) {
	after, limit, err := pageParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entries, err := s.b.ExecutionLogPage(uint64(after), limit+1)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := execLogPage{Items: entries, Total: s.b.ExecutionLogLen()}
	if len(entries) > limit {
		out.Items = entries[:limit]
		out.NextAfter = entries[limit-1].Seq
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth serves the aggregated resilience report. Load balancers
// key off the status code alone: 200 while mutations are admitted
// (healthy or degraded), 503 once the node is read-only.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	rep := s.b.HealthReport()
	status := http.StatusOK
	if rep.State == resilience.ReadOnly.String() {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

// handleAlerts lists the newest retained alerts (?limit=N).
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r.URL.Query().Get("limit"))
	if err != nil || limit < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit: %v", r.URL.Query().Get("limit")))
		return
	}
	alerts := s.b.RecentAlerts(limit)
	if alerts == nil {
		alerts = []resilience.Alert{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"alerts": alerts})
}

// handleAlertStream pushes alerts as server-sent events until the
// client disconnects. Slow consumers drop alerts rather than block the
// watcher; clients resync from GET /api/v1/admin/alerts on reconnect.
func (s *Server) handleAlertStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	ch, cancel := s.b.SubscribeAlerts(16)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 5000\n\n")
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case a, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(a)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: alert\ndata: %s\n\n", data)
			fl.Flush()
		}
	}
}

func (s *Server) handleMonitorSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.b.Monitor().Summarize())
}

func (s *Server) handleMonitorOverview(w http.ResponseWriter, r *http.Request) {
	f, err := parseFilter(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows := s.b.Monitor().OverviewWhere(f)
	if rows == nil {
		rows = []monitor.Row{}
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) handleMonitorLate(w http.ResponseWriter, r *http.Request) {
	f, err := parseFilter(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows := s.b.Monitor().LateWhere(f)
	if rows == nil {
		rows = []monitor.Row{}
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleTimeline serves both timeline routes (the API's and the
// monitor's): ?after=<seq> resumes past a cursor, ?limit=<n> bounds
// the page (see pageParams). It is backed by the runtime's event
// window, so it copies only the page — no execution slice, no model —
// and reports when ring truncation cut the requested range.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	after, limit, err := pageParams(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	page, ok := s.b.Monitor().TimelinePage(r.PathValue("id"), int(after), limit)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no instance %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, toTimelinePage(page))
}

// queryInt parses an optional non-negative integer query value.
func queryInt(s string) (int, error) {
	n, err := queryInt64(s)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// queryInt64 parses an optional non-negative int64 query value (the
// creation-seq cursor of the population paging).
func queryInt64(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("must be >= 0, got %d", n)
	}
	return n, nil
}

// ---- widget handlers ----------------------------------------------------------

func widgetStatus(err error) int {
	switch {
	case errors.Is(err, widget.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, widget.ErrDenied):
		return http.StatusForbidden
	}
	return http.StatusBadRequest
}

func (s *Server) handleWidgetHTML(w http.ResponseWriter, r *http.Request) {
	html, err := s.b.Widgets().HTML(r.PathValue("id"), s.user(r))
	if err != nil {
		writeError(w, widgetStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, html)
}

func (s *Server) handleWidgetJSON(w http.ResponseWriter, r *http.Request) {
	v, err := s.b.Widgets().View(r.PathValue("id"), s.user(r))
	if err != nil {
		writeError(w, widgetStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleWidgetFeed(w http.ResponseWriter, r *http.Request) {
	out, err := s.b.Widgets().Feed(r.PathValue("id"), s.user(r))
	if err != nil {
		writeError(w, widgetStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/rss+xml")
	w.Write(out)
}
