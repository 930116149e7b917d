package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/liquidpub/gelee/internal/monitor"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
)

// The hand encoders of wire.go against encoding/json: for generated
// payloads, each writes byte for byte what json.NewEncoder(w).Encode
// writes for the payload structs the routes sent before they had hand
// encoders.

// instancesPage is the instance list's envelope as a struct: the shape
// summaryPage encodes by hand.
type instancesPage struct {
	Items     []instancePayload `json:"items"`
	Total     int               `json:"total"`
	NextAfter int64             `json:"next_after,omitempty"`
}

func toInstancesPage(p runtime.SummaryPage) instancesPage {
	items := make([]instancePayload, len(p.Summaries))
	for i := range p.Summaries {
		items[i] = toSummaryPayload(&p.Summaries[i])
	}
	return instancesPage{Items: items, Total: p.Total, NextAfter: p.NextAfter}
}

// wireGen draws payloads whose strings mix the inputs where
// encoding/json's escaping is easy to get wrong with plain text and
// random bytes, and whose optional members are absent, empty or set.
type wireGen struct{ r *rand.Rand }

var wireFragments = []string{
	"", "deliverable", "D1.1 draft", "<script>", "a&b>c", "\u2028", "\u2029",
	"\xff", "\xed\xa0\x80", "\xe2\x80", "\b\f", "\x00\x01\x1f", "\x7f",
	`"quoted"\`, "héllo 東京 🗼", "\t\n\r", "urn:gelee:models:eu-deliverable",
}

func (g wireGen) str() string {
	var b strings.Builder
	for n := g.r.Intn(4); n > 0; n-- {
		if g.r.Intn(4) == 0 {
			raw := make([]byte, g.r.Intn(6))
			g.r.Read(raw)
			b.Write(raw)
			continue
		}
		b.WriteString(wireFragments[g.r.Intn(len(wireFragments))])
	}
	return b.String()
}

// strs is nil, empty or a few strings.
func (g wireGen) strs() []string {
	switch g.r.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.r.Intn(3))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

// time is zero, UTC or in a fixed zone, with or without nanoseconds.
func (g wireGen) time() time.Time {
	if g.r.Intn(4) == 0 {
		return time.Time{}
	}
	t := time.Unix(g.r.Int63n(4e9), 0)
	if g.r.Intn(2) == 0 {
		t = t.Add(time.Duration(g.r.Intn(1e9)))
	}
	if g.r.Intn(2) == 0 {
		return t.UTC()
	}
	return t.In(time.FixedZone("z", g.r.Intn(2*86399)-86399))
}

func (g wireGen) n() int { return g.r.Intn(3) * g.r.Intn(1<<20) }

func (g wireGen) ref() resource.Ref {
	ref := resource.Ref{URI: g.str(), Type: g.str()}
	if g.r.Intn(2) == 0 {
		ref.Credentials = map[string]string{"token": g.str(), "user": g.str()}
	}
	return ref
}

func (g wireGen) summary() runtime.Summary {
	return runtime.Summary{
		ID: g.str(), Seq: int64(g.n()), ModelURI: g.str(), ModelName: g.str(),
		Resource: g.ref(), Owner: g.str(), State: runtime.State(g.str()), Current: g.str(),
		PhaseName: g.str(), CreatedAt: g.time(), Due: g.time(),
		NextSuggested: g.strs(), Phases: g.strs(), Events: g.n(),
		Deviations: g.n(), Pending: g.str(), Unresolved: g.strs(),
	}
}

func (g wireGen) event(seq int) runtime.Event {
	return runtime.Event{
		Seq: seq, Time: g.time(), Kind: runtime.EventKind(g.str()), Actor: g.str(),
		Phase: g.str(), FromPhase: g.str(), Detail: g.str(), Deviation: g.r.Intn(2) == 0,
		ActionURI: g.str(), Invocation: g.str(), Status: g.str(),
	}
}

func (g wireGen) events() []runtime.Event {
	if g.r.Intn(3) == 0 {
		return nil
	}
	evs := make([]runtime.Event, g.r.Intn(4))
	for i := range evs {
		evs[i] = g.event(i + 1)
	}
	return evs
}

func (g wireGen) counts() map[string]int {
	switch g.r.Intn(4) {
	case 0:
		return nil
	case 1:
		return map[string]int{}
	}
	m := make(map[string]int)
	for n := 1 + g.r.Intn(6); n > 0; n-- {
		m[g.str()] = g.n()
	}
	return m
}

func (g wireGen) monitorSummary() monitor.Summary {
	return monitor.Summary{
		Total: g.n(), Active: g.n(), Completed: g.n(), NotStarted: g.n(), Late: g.n(),
		ByPhase: g.counts(), ByModel: g.counts(), Deviations: g.n(), Failed: g.n(), Proposals: g.n(),
	}
}

// encodedByStdlib is what json.NewEncoder(w).Encode writes for v.
func encodedByStdlib(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// sameAsStdlib reports whether the hand encoding of v is ref's
// encoding/json body, logging the first difference.
func sameAsStdlib(t *testing.T, v wireAppender, ref any) bool {
	t.Helper()
	got, err := v.appendJSON([]byte("prefix"))
	if err != nil {
		t.Logf("hand encoder failed: %v", err)
		return false
	}
	want := "prefix" + encodedByStdlib(t, ref)
	if string(got)+"\n" != want {
		t.Logf("hand encoding differs:\n got %s\nwant %s", got, want)
		return false
	}
	return true
}

func checkWire(t *testing.T, prop func(g wireGen) bool) {
	t.Helper()
	f := func(seed int64) bool { return prop(wireGen{rand.New(rand.NewSource(seed))}) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWireInstancePageMatchesEncoder(t *testing.T) {
	checkWire(t, func(g wireGen) bool {
		var page runtime.SummaryPage
		switch g.r.Intn(3) {
		case 0: // nil: an empty population
		case 1:
			page.Summaries = []runtime.Summary{}
		default:
			for n := 1 + g.r.Intn(4); n > 0; n-- {
				page.Summaries = append(page.Summaries, g.summary())
			}
		}
		page.Total, page.NextAfter = g.n(), int64(g.n())
		hand := summaryPage(page)
		return sameAsStdlib(t, &hand, toInstancesPage(page))
	})
}

func TestWireInstanceSummaryMatchesEncoder(t *testing.T) {
	checkWire(t, func(g wireGen) bool {
		sum := g.summary()
		p := toSummaryPayload(&sum)
		return p.Resource.Credentials == nil && sameAsStdlib(t, &p, p)
	})
}

func TestWireMovePayloadMatchesEncoder(t *testing.T) {
	checkWire(t, func(g wireGen) bool {
		p := toMovePayload(runtime.MoveResult{Summary: g.summary(), Events: g.events()})
		return p.Resource.Credentials == nil && sameAsStdlib(t, &p, p)
	})
}

// TestWireInstancePayloadMatchesEncoder covers the members no hot
// route sets: executions (encoded by encoding/json inside the hand
// encoder) and credentials on a payload that was not stripped.
func TestWireInstancePayloadMatchesEncoder(t *testing.T) {
	checkWire(t, func(g wireGen) bool {
		p := toMovePayload(runtime.MoveResult{Summary: g.summary(), Events: g.events()})
		p.Resource = g.ref()
		for n := g.r.Intn(3); n > 0; n-- {
			p.Executions = append(p.Executions, runtime.ActionExecution{
				InvocationID: g.str(), ActionURI: g.str(), Phase: g.str(),
				StartedAt: g.time(), LastDetail: g.str(), Terminal: g.r.Intn(2) == 0,
			})
		}
		return sameAsStdlib(t, &p, p)
	})
}

// TestWireTimelinePageMatchesEncoder: the timeline body is the
// runtime's EventPage as encoding/json writes it, for nil, empty and
// filled pages of events that draw each of their eleven fields.
func TestWireTimelinePageMatchesEncoder(t *testing.T) {
	checkWire(t, func(g wireGen) bool {
		page := runtime.EventPage{
			Total: g.n(), NextAfter: g.n(), OldestSeq: g.n(),
			Truncated: g.r.Intn(2) == 0, Backfilled: g.n(),
		}
		switch g.r.Intn(3) {
		case 0: // nil: not a page runtime.Events returns, encoded all the same
		case 1:
			page.Events = []runtime.Event{}
		default:
			for n := 1 + g.r.Intn(4); n > 0; n-- {
				page.Events = append(page.Events, g.event(n))
			}
		}
		return sameAsStdlib(t, (*eventPage)(&page), page)
	})
}

// TestWireSummaryMatchesEncoder checks the cockpit summary unversioned,
// on a first read of a version, on a cached re-read, and after the
// version moves on.
func TestWireSummaryMatchesEncoder(t *testing.T) {
	var cache atomic.Pointer[byModelBlock]
	var version uint64
	checkWire(t, func(g wireGen) bool {
		sum := g.monitorSummary()
		body := summaryBody{sum: &sum, cache: &cache}
		if !sameAsStdlib(t, body, sum) {
			return false
		}
		version++
		sum.ByModelVersion = version
		for range 2 {
			if !sameAsStdlib(t, body, sum) {
				return false
			}
			// Everything but by_model may change within a version.
			sum.Total, sum.ByPhase = g.n(), g.counts()
		}
		blk := cache.Load()
		return blk != nil && blk.version == version
	})
}

// TestWireSummaryConcurrentVersions: requests racing on one server's
// by_model cache with different versions each still send their own
// version's breakdown.
func TestWireSummaryConcurrentVersions(t *testing.T) {
	var cache atomic.Pointer[byModelBlock]
	g := wireGen{rand.New(rand.NewSource(7))}
	sums := make([]monitor.Summary, 3)
	want := make([]string, len(sums))
	for i := range sums {
		sums[i] = g.monitorSummary()
		sums[i].ByModel = map[string]int{fmt.Sprintf("model %d", i): i + 1, "shared": 7}
		want[i] = strings.TrimSuffix(encodedByStdlib(t, sums[i]), "\n")
		sums[i].ByModelVersion = uint64(i + 1)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				k := (w + i) % len(sums)
				got, err := summaryBody{sum: &sums[k], cache: &cache}.appendJSON(nil)
				if err != nil || string(got) != want[k] {
					t.Errorf("version %d: got %s (err %v), want %s", k+1, got, err, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWriteJSONOneWrite: a response is sent in one Write whose length
// is the Content-Length, hand-encoded or not.
func TestWriteJSONOneWrite(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(1))}
	page := runtime.SummaryPage{Total: 300}
	for range 200 {
		page.Summaries = append(page.Summaries, g.summary())
	}
	hand := summaryPage(page)
	for _, c := range []struct{ v, ref any }{
		{&hand, toInstancesPage(page)},
		{toInstancesPage(page), toInstancesPage(page)},
		{map[string]string{"gelee": "ok"}, map[string]string{"gelee": "ok"}},
	} {
		w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		writeJSON(w, http.StatusOK, c.v)
		body := w.Body.String()
		if w.writes != 1 || w.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("%T: %d writes, Content-Length %q for %d bytes",
				c.v, w.writes, w.Header().Get("Content-Length"), len(body))
		}
		if body != encodedByStdlib(t, c.ref) {
			t.Fatalf("%T: body differs from encoding/json", c.v)
		}
	}
}

type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

// TestWriteJSONEncodeFailureIs500: a body that cannot be encoded —
// by encoding/json or by a hand encoder — is answered with the
// structured 500, never a truncated 200.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	badTime := &eventPage{Events: []runtime.Event{
		{Seq: 1, Time: time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC)},
		{Seq: 2, Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	}}
	for _, v := range []any{math.NaN(), map[string]any{"x": math.Inf(1)}, badTime} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var body apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%v: body %q: %v", v, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || body.Code != "internal" || body.Message == "" {
			t.Fatalf("%v: status %d, body %+v", v, rec.Code, body)
		}
		if rec.Header().Get("Content-Length") != fmt.Sprint(rec.Body.Len()) {
			t.Fatalf("%v: Content-Length %q for %d bytes", v, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
	}
}
