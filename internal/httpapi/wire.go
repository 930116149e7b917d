package httpapi

// The response writer. Every JSON response goes through writeJSON: the
// body is encoded into a pooled buffer before anything is sent, so an
// encode failure becomes the structured 500 instead of a truncated
// 200, and the finished body leaves with its Content-Length in one
// Write. The hot shapes — the instance-list and timeline pages with
// their items, the move payload and the cockpit summary — carry hand
// encoders (wireAppender) that write exactly the bytes
// json.Encoder.Encode writes for them; wire_test.go pins that over
// generated payloads. Every other payload is encoded by encoding/json
// into the same buffer.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/liquidpub/gelee/internal/jsonenc"
	"github.com/liquidpub/gelee/internal/monitor"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
)

// wireAppender is a payload with a hand encoder: appendJSON appends
// what json.Encoder.Encode writes for it, less the trailing newline,
// and fails where encoding/json fails.
type wireAppender interface {
	appendJSON(buf []byte) ([]byte, error)
}

// maxPooledResp bounds the buffers the pool keeps: one grown past it
// by a rare large response is left to the collector, not pinned.
const maxPooledResp = 64 << 10

// respBuf is a pooled response body; encoding/json writes into it
// through Write.
type respBuf struct{ b []byte }

func (rb *respBuf) Write(p []byte) (int, error) {
	rb.b = append(rb.b, p...)
	return len(p), nil
}

var respBufs = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 4<<10)} }}

// encode appends v's body, newline included, to the buffer; on error
// the buffer is unchanged.
func (rb *respBuf) encode(v any) error {
	a, ok := v.(wireAppender)
	if !ok {
		return json.NewEncoder(rb).Encode(v)
	}
	b, err := a.appendJSON(rb.b)
	if err != nil {
		return err
	}
	rb.b = append(b, '\n')
	return nil
}

// writeJSON sends v as the JSON response body with the given status,
// or the structured 500 when v cannot be encoded.
func writeJSON(w http.ResponseWriter, status int, v any) {
	rb := respBufs.Get().(*respBuf)
	if err := rb.encode(v); err != nil {
		status = http.StatusInternalServerError
		_ = rb.encode(apiError{Code: codeFor(status), Message: "encode response: " + err.Error()}) // an apiError always encodes
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(rb.b)))
	w.WriteHeader(status)
	_, _ = w.Write(rb.b) // a failed write means the client is gone: no one is left to tell
	if cap(rb.b) <= maxPooledResp {
		rb.b = rb.b[:0]
		respBufs.Put(rb)
	}
}

// appendField appends a member key (with its leading comma or brace)
// and a string value.
func appendField(buf []byte, key, s string) []byte {
	return jsonenc.AppendWireString(append(buf, key...), s)
}

// appendOmitEmpty is appendField for an omitempty string: nothing when
// s is empty.
func appendOmitEmpty(buf []byte, key, s string) []byte {
	if s == "" {
		return buf
	}
	return appendField(buf, key, s)
}

func appendInt(buf []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(buf, key...), n, 10)
}

// appendStrings appends a string slice; nil is null, as encoding/json
// writes it.
func appendStrings(buf []byte, ss []string) []byte {
	if ss == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, s := range ss {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonenc.AppendWireString(buf, s)
	}
	return append(buf, ']')
}

// appendCounts appends a count map with its keys sorted, as
// encoding/json writes maps; nil is null.
func appendCounts(buf []byte, m map[string]int) []byte {
	if m == nil {
		return append(buf, "null"...)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonenc.AppendWireString(buf, k)
		buf = strconv.AppendInt(append(buf, ':'), int64(m[k]), 10)
	}
	return append(buf, '}')
}

// appendMarshaled appends v through encoding/json: the fallback for
// the rare members the hand encoders do not cover.
func appendMarshaled(buf []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(buf, b...), err
}

func appendRef(buf []byte, ref *resource.Ref) ([]byte, error) {
	buf = appendField(buf, `{"uri":`, ref.URI)
	buf = appendField(buf, `,"type":`, ref.Type)
	if len(ref.Credentials) > 0 {
		var err error
		if buf, err = appendMarshaled(append(buf, `,"credentials":`...), ref.Credentials); err != nil {
			return buf, err
		}
	}
	return append(buf, '}'), nil
}

// appendEvents appends an event slice; nil is null, as encoding/json
// writes it.
func appendEvents(buf []byte, evs []runtime.Event) ([]byte, error) {
	if evs == nil {
		return append(buf, "null"...), nil
	}
	buf = append(buf, '[')
	for i := range evs {
		if i > 0 {
			buf = append(buf, ',')
		}
		var err error
		if buf, err = appendEvent(buf, &evs[i]); err != nil {
			return buf, err
		}
	}
	return append(buf, ']'), nil
}

// appendEvent encodes a runtime.Event: one shape on every route that
// sends events.
func appendEvent(buf []byte, ev *runtime.Event) ([]byte, error) {
	buf = appendInt(buf, `{"seq":`, int64(ev.Seq))
	buf, err := jsonenc.AppendWireTime(append(buf, `,"time":`...), ev.Time)
	if err != nil {
		return buf, err
	}
	buf = appendField(buf, `,"kind":`, string(ev.Kind))
	buf = appendOmitEmpty(buf, `,"actor":`, ev.Actor)
	buf = appendOmitEmpty(buf, `,"phase":`, ev.Phase)
	buf = appendOmitEmpty(buf, `,"from_phase":`, ev.FromPhase)
	buf = appendOmitEmpty(buf, `,"detail":`, ev.Detail)
	if ev.Deviation {
		buf = append(buf, `,"deviation":true`...)
	}
	buf = appendOmitEmpty(buf, `,"action_uri":`, ev.ActionURI)
	buf = appendOmitEmpty(buf, `,"invocation":`, ev.Invocation)
	buf = appendOmitEmpty(buf, `,"status":`, ev.Status)
	return append(buf, '}'), nil
}

func (p *instancePayload) appendJSON(buf []byte) ([]byte, error) {
	buf = appendField(buf, `{"id":`, p.ID)
	buf = appendField(buf, `,"model_uri":`, p.ModelURI)
	buf = appendField(buf, `,"model_name":`, p.ModelName)
	buf, err := appendRef(append(buf, `,"resource":`...), &p.Resource)
	if err != nil {
		return buf, err
	}
	buf = appendField(buf, `,"owner":`, p.Owner)
	buf = appendField(buf, `,"state":`, p.State)
	buf = appendField(buf, `,"current":`, p.Current)
	buf = appendStrings(append(buf, `,"next_suggested":`...), p.NextSuggested)
	buf = appendStrings(append(buf, `,"phases":`...), p.Phases)
	if len(p.Events) > 0 {
		if buf, err = appendEvents(append(buf, `,"events":`...), p.Events); err != nil {
			return buf, err
		}
	}
	if len(p.Executions) > 0 {
		// Only full snapshots carry executions; no hot route does.
		if buf, err = appendMarshaled(append(buf, `,"executions":`...), p.Executions); err != nil {
			return buf, err
		}
	}
	buf = appendOmitEmpty(buf, `,"pending_change":`, p.Pending)
	if len(p.Unresolved) > 0 {
		buf = appendStrings(append(buf, `,"unresolved_actions":`...), p.Unresolved)
	}
	return append(buf, '}'), nil
}

// summaryPage is the instance list's {items,total,next_after}
// envelope, encoded straight off the runtime page: each item is the
// summary view of instancePayload (toSummaryPayload), and total is
// runtime.SummaryPage.Total — the matches with seq > after, the whole
// population for an unfiltered page, and 0 (unknown) for a filter
// naming neither resource nor model.
type summaryPage runtime.SummaryPage

func (p *summaryPage) appendJSON(buf []byte) ([]byte, error) {
	buf = append(buf, `{"items":[`...)
	for i := range p.Summaries {
		if i > 0 {
			buf = append(buf, ',')
		}
		item := toSummaryPayload(&p.Summaries[i])
		var err error
		if buf, err = item.appendJSON(buf); err != nil {
			return buf, err
		}
	}
	buf = appendInt(append(buf, ']'), `,"total":`, int64(p.Total))
	if p.NextAfter != 0 {
		buf = appendInt(buf, `,"next_after":`, p.NextAfter)
	}
	return append(buf, '}'), nil
}

// eventPage is both timeline routes' body: the page runtime.Events
// returned, encoded as is.
type eventPage runtime.EventPage

func (p *eventPage) appendJSON(buf []byte) ([]byte, error) {
	buf, err := appendEvents(append(buf, `{"items":`...), p.Events)
	if err != nil {
		return buf, err
	}
	buf = appendInt(buf, `,"total":`, int64(p.Total))
	if p.NextAfter != 0 {
		buf = appendInt(buf, `,"next_after":`, int64(p.NextAfter))
	}
	buf = appendInt(buf, `,"oldest_seq":`, int64(p.OldestSeq))
	buf = strconv.AppendBool(append(buf, `,"truncated":`...), p.Truncated)
	if p.Backfilled != 0 {
		buf = appendInt(buf, `,"backfilled":`, int64(p.Backfilled))
	}
	return append(buf, '}'), nil
}

// byModelBlock is the encoded by_model object of one aggregate
// version.
type byModelBlock struct {
	version uint64
	enc     []byte
}

// summaryBody is the cockpit summary as sent: by_model, up to one key
// per model, is encoded once per version into the Server's cache and
// copied from there until an instance is created or switches model.
type summaryBody struct {
	sum   *monitor.Summary
	cache *atomic.Pointer[byModelBlock]
}

func (b summaryBody) appendJSON(buf []byte) ([]byte, error) {
	s := b.sum
	buf = appendInt(buf, `{"total":`, int64(s.Total))
	buf = appendInt(buf, `,"active":`, int64(s.Active))
	buf = appendInt(buf, `,"completed":`, int64(s.Completed))
	buf = appendInt(buf, `,"not_started":`, int64(s.NotStarted))
	buf = appendInt(buf, `,"late":`, int64(s.Late))
	buf = appendCounts(append(buf, `,"by_phase":`...), s.ByPhase)
	buf = append(buf, `,"by_model":`...)
	switch blk := b.cache.Load(); {
	case s.ByModelVersion == 0:
		buf = appendCounts(buf, s.ByModel)
	case blk != nil && blk.version == s.ByModelVersion:
		buf = append(buf, blk.enc...)
	default:
		n := len(buf)
		buf = appendCounts(buf, s.ByModel)
		b.cache.Store(&byModelBlock{version: s.ByModelVersion, enc: bytes.Clone(buf[n:])})
	}
	buf = appendInt(buf, `,"deviations":`, int64(s.Deviations))
	buf = appendInt(buf, `,"failed_actions":`, int64(s.Failed))
	buf = appendInt(buf, `,"pending_proposals":`, int64(s.Proposals))
	return append(buf, '}'), nil
}
