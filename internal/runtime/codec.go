package runtime

// The journal-record codec, both directions by hand.
//
// Encoding rides the write path of every persisted mutation, under the
// instance lock: a token move's record costs more to marshal through
// encoding/json reflection than the move itself costs to apply. Every
// field is written by hand in struct order; only model bodies (Model,
// Pending.NewModel) go through json.Marshal, and they occur once per
// model version. Zero times are left out — `omitempty` never omits a
// time.Time, so the reflective encoder wrote "0001-01-01T00:00:00Z"
// for every unset one — and map keys are written sorted.
//
// Decoding rides the restart path: every replayed record is decoded
// once, in one pass, by decodeRecord. It reads the shapes Encode
// writes, in any key order, and returns exactly what json.Unmarshal
// would; anything else — a key it does not know byte for byte
// (encoding/json matches keys case-insensitively), a duplicate key, a
// null, whitespace, a non-integer number — sends the whole record to
// json.Unmarshal instead. Model bodies decode through json.Unmarshal
// on their own sub-slice. TestCodecEquivalence and the quick round
// trips pin Encode against encoding/json, FuzzDecodeJournalRecord the
// decoder.

import (
	"encoding/json"
	"slices"
	"strconv"
	"time"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/jsonenc"
	"github.com/liquidpub/gelee/internal/resource"
)

// Encode renders the record as the JSON document ApplyJournal decodes.
func (rec *JournalRecord) Encode() ([]byte, error) {
	buf := make([]byte, 0, 192+64*len(rec.Events)+160*len(rec.Executions))
	buf = append(buf, `{"op":`...)
	buf = jsonenc.AppendString(buf, string(rec.Op))
	buf = append(buf, `,"instance":`...)
	buf = jsonenc.AppendString(buf, rec.Instance)
	if len(rec.Events) > 0 {
		buf = append(buf, `,"events":[`...)
		for i := range rec.Events {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendEvent(buf, &rec.Events[i])
		}
		buf = append(buf, ']')
	}
	buf = appendInt(buf, `,"seq":`, rec.Seq)
	if r := rec.Resource; r != nil {
		buf = append(buf, `,"resource":{"uri":`...)
		buf = jsonenc.AppendString(buf, r.URI)
		buf = append(buf, `,"type":`...)
		buf = jsonenc.AppendString(buf, r.Type)
		if len(r.Credentials) > 0 {
			buf = append(buf, `,"credentials":`...)
			buf = appendStringMap(buf, r.Credentials)
		}
		buf = append(buf, '}')
	}
	buf = appendString(buf, `,"owner":`, rec.Owner)
	buf = appendTime(buf, `,"created_at":`, rec.CreatedAt)
	if len(rec.Unresolved) > 0 {
		buf = append(buf, `,"unresolved":[`...)
		for i, s := range rec.Unresolved {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonenc.AppendString(buf, s)
		}
		buf = append(buf, ']')
	}
	if len(rec.Bindings) > 0 {
		buf = append(buf, `,"bindings":{`...)
		for i, k := range sortedKeys(rec.Bindings) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = jsonenc.AppendString(buf, k)
			buf = append(buf, ':')
			buf = appendStringMap(buf, rec.Bindings[k])
		}
		buf = append(buf, '}')
	}
	buf = appendString(buf, `,"model_digest":`, rec.ModelDigest)
	var err error
	if buf, err = appendModel(buf, `,"model":`, rec.Model); err != nil {
		return nil, err
	}
	buf = appendString(buf, `,"to":`, rec.To)
	if len(rec.Executions) > 0 {
		buf = append(buf, `,"executions":[`...)
		for i := range rec.Executions {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendExecution(buf, &rec.Executions[i])
		}
		buf = append(buf, ']')
	}
	buf = appendString(buf, `,"invocation":`, rec.Invocation)
	buf = appendString(buf, `,"status":`, rec.Status)
	buf = appendString(buf, `,"detail":`, rec.Detail)
	if rec.Terminal {
		buf = append(buf, `,"terminal":true`...)
	}
	buf = appendString(buf, `,"proposer":`, rec.Proposer)
	buf = appendTime(buf, `,"proposed_at":`, rec.ProposedAt)
	buf = appendString(buf, `,"note":`, rec.Note)
	buf = appendString(buf, `,"diff_summary":`, rec.DiffSummary)
	buf = appendString(buf, `,"landing":`, rec.Landing)
	buf = appendString(buf, `,"state":`, string(rec.State))
	buf = appendString(buf, `,"current":`, rec.Current)
	buf = appendTime(buf, `,"completed_at":`, rec.CompletedAt)
	buf = appendString(buf, `,"model_uri":`, rec.ModelURI)
	buf = appendInt(buf, `,"event_seq":`, int64(rec.EventSeq))
	buf = appendInt(buf, `,"truncated_events":`, int64(rec.TruncatedEvs))
	if len(rec.Archives) > 0 {
		buf = append(buf, `,"archives":[`...)
		for i, h := range rec.Archives {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"archive":`...)
			buf = strconv.AppendUint(buf, h.Archive, 10)
			buf = append(buf, `,"from":`...)
			buf = strconv.AppendInt(buf, int64(h.From), 10)
			buf = append(buf, `,"to":`...)
			buf = strconv.AppendInt(buf, int64(h.To), 10)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = appendInt(buf, `,"deviations":`, int64(rec.Deviations))
	if p := rec.Pending; p != nil {
		buf = append(buf, `,"pending":{"proposed_by":`...)
		buf = jsonenc.AppendString(buf, p.ProposedBy)
		buf = appendTime(buf, `,"proposed_at":`, p.ProposedAt)
		buf = appendString(buf, `,"note":`, p.Note)
		if buf, err = appendModel(buf, `,"new_model":`, p.NewModel); err != nil {
			return nil, err
		}
		buf = append(buf, `,"summary":`...)
		buf = jsonenc.AppendString(buf, p.Summary)
		buf = append(buf, '}')
	}
	if len(rec.PhaseEntered) > 0 {
		buf = append(buf, `,"phase_entered":{`...)
		for i, k := range sortedKeys(rec.PhaseEntered) {
			buf = appendMapInt(buf, i, k, int64(rec.PhaseEntered[k]))
		}
		buf = append(buf, '}')
	}
	if len(rec.PhaseResidence) > 0 {
		buf = append(buf, `,"phase_residence":{`...)
		for i, k := range sortedKeys(rec.PhaseResidence) {
			buf = appendMapInt(buf, i, k, int64(rec.PhaseResidence[k]))
		}
		buf = append(buf, '}')
	}
	buf = appendString(buf, `,"resid_phase":`, rec.ResidPhase)
	buf = appendTime(buf, `,"resid_since":`, rec.ResidSince)
	buf = appendString(buf, `,"pending_digest":`, rec.PendingDigest)
	return append(buf, '}'), nil
}

// appendString appends key and s unless s is empty (omitempty).
func appendString(buf []byte, key, s string) []byte {
	if s == "" {
		return buf
	}
	return jsonenc.AppendString(append(buf, key...), s)
}

// appendInt appends key and n unless n is zero (omitempty).
func appendInt(buf []byte, key string, n int64) []byte {
	if n == 0 {
		return buf
	}
	return strconv.AppendInt(append(buf, key...), n, 10)
}

// appendTime appends key and t unless t is the zero time.
func appendTime(buf []byte, key string, t time.Time) []byte {
	if t.IsZero() {
		return buf
	}
	return jsonenc.AppendTime(append(buf, key...), t)
}

// appendModel appends key and the model body unless m is nil; bodies
// keep encoding/json's encoding, once per model version.
func appendModel(buf []byte, key string, m *core.Model) ([]byte, error) {
	if m == nil {
		return buf, nil
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(append(buf, key...), body...), nil
}

// appendStringMap appends m as a JSON object with sorted keys.
func appendStringMap(buf []byte, m map[string]string) []byte {
	buf = append(buf, '{')
	for i, k := range sortedKeys(m) {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonenc.AppendString(buf, k)
		buf = append(buf, ':')
		buf = jsonenc.AppendString(buf, m[k])
	}
	return append(buf, '}')
}

// appendMapInt appends the i-th member k:n of an integer-valued object.
func appendMapInt(buf []byte, i int, k string, n int64) []byte {
	if i > 0 {
		buf = append(buf, ',')
	}
	buf = jsonenc.AppendString(buf, k)
	buf = append(buf, ':')
	return strconv.AppendInt(buf, n, 10)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendEvent encodes one Event matching its json tags (Seq and Time
// are unconditional, everything else omitempty).
func appendEvent(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(ev.Seq), 10)
	buf = append(buf, `,"time":`...)
	buf = jsonenc.AppendTime(buf, ev.Time)
	buf = append(buf, `,"kind":`...)
	buf = jsonenc.AppendString(buf, string(ev.Kind))
	buf = appendString(buf, `,"actor":`, ev.Actor)
	buf = appendString(buf, `,"phase":`, ev.Phase)
	buf = appendString(buf, `,"from_phase":`, ev.FromPhase)
	buf = appendString(buf, `,"detail":`, ev.Detail)
	if ev.Deviation {
		buf = append(buf, `,"deviation":true`...)
	}
	buf = appendString(buf, `,"action_uri":`, ev.ActionURI)
	buf = appendString(buf, `,"invocation":`, ev.Invocation)
	buf = appendString(buf, `,"status":`, ev.Status)
	return append(buf, '}')
}

// appendExecution encodes one ActionExecution matching its json tags.
func appendExecution(buf []byte, ex *ActionExecution) []byte {
	buf = append(buf, `{"invocation_id":`...)
	buf = jsonenc.AppendString(buf, ex.InvocationID)
	buf = append(buf, `,"action_uri":`...)
	buf = jsonenc.AppendString(buf, ex.ActionURI)
	buf = append(buf, `,"action_name":`...)
	buf = jsonenc.AppendString(buf, ex.ActionName)
	buf = append(buf, `,"phase":`...)
	buf = jsonenc.AppendString(buf, ex.Phase)
	buf = append(buf, `,"started_at":`...)
	buf = jsonenc.AppendTime(buf, ex.StartedAt)
	buf = appendString(buf, `,"last_status":`, ex.LastStatus)
	buf = appendString(buf, `,"last_detail":`, ex.LastDetail)
	buf = append(buf, `,"terminal":`...)
	buf = strconv.AppendBool(buf, ex.Terminal)
	buf = append(buf, `,"updates":`...)
	buf = strconv.AppendInt(buf, int64(ex.Updates), 10)
	buf = appendString(buf, `,"dispatch_err":`, ex.DispatchErr)
	return append(buf, '}')
}

// ---- decode --------------------------------------------------------------------

// decodeRecord decodes data into rec, which must be the zero record:
// in one hand-written pass when data has a shape scanRecord reads,
// else through json.Unmarshal. Either way rec ends up exactly as
// json.Unmarshal would leave it, and the error is json.Unmarshal's.
func decodeRecord(data []byte, rec *JournalRecord) error {
	if scanRecord(data, rec) {
		return nil
	}
	*rec = JournalRecord{}
	return json.Unmarshal(data, rec)
}

// intBits is the width of Go's int, which encoding/json range-checks.
const intBits = strconv.IntSize

// scanRecord decodes data into rec and reports whether it could; on
// false rec holds a partial decode the caller discards.
func scanRecord(data []byte, rec *JournalRecord) bool {
	s := jsonenc.NewScanner(data)
	var seen uint64
	for more := s.Object(); more; more = s.More('}') {
		var k uint
		switch string(s.Key()) {
		case "op":
			k, rec.Op = 0, RecordOp(s.String())
		case "instance":
			k, rec.Instance = 1, s.String()
		case "events":
			k, rec.Events = 2, scanEvents(&s)
		case "seq":
			k, rec.Seq = 3, s.Int(64)
		case "resource":
			k, rec.Resource = 4, scanRef(&s)
		case "owner":
			k, rec.Owner = 5, s.String()
		case "created_at":
			k, rec.CreatedAt = 6, s.Time()
		case "unresolved":
			k = 7
			rec.Unresolved = []string{}
			for more := s.Array(); more; more = s.More(']') {
				rec.Unresolved = append(rec.Unresolved, s.String())
			}
		case "bindings":
			k = 8
			rec.Bindings = map[string]map[string]string{}
			for more := s.Object(); more; more = s.More('}') {
				key := s.MapKey()
				rec.Bindings[key] = scanStringMap(&s)
			}
		case "model_digest":
			k, rec.ModelDigest = 9, s.String()
		case "model":
			k, rec.Model = 10, scanModel(&s)
		case "to":
			k, rec.To = 11, s.String()
		case "executions":
			k, rec.Executions = 12, scanExecutions(&s)
		case "invocation":
			k, rec.Invocation = 13, s.String()
		case "status":
			k, rec.Status = 14, s.String()
		case "detail":
			k, rec.Detail = 15, s.String()
		case "terminal":
			k, rec.Terminal = 16, s.Bool()
		case "proposer":
			k, rec.Proposer = 17, s.String()
		case "proposed_at":
			k, rec.ProposedAt = 18, s.Time()
		case "note":
			k, rec.Note = 19, s.String()
		case "diff_summary":
			k, rec.DiffSummary = 20, s.String()
		case "landing":
			k, rec.Landing = 21, s.String()
		case "state":
			k, rec.State = 22, State(s.String())
		case "current":
			k, rec.Current = 23, s.String()
		case "completed_at":
			k, rec.CompletedAt = 24, s.Time()
		case "model_uri":
			k, rec.ModelURI = 25, s.String()
		case "event_seq":
			k, rec.EventSeq = 26, int(s.Int(intBits))
		case "truncated_events":
			k, rec.TruncatedEvs = 27, int(s.Int(intBits))
		case "archives":
			k = 28
			rec.Archives = []HistoryRef{}
			for more := s.Array(); more; more = s.More(']') {
				rec.Archives = append(rec.Archives, scanHistoryRef(&s))
			}
		case "deviations":
			k, rec.Deviations = 29, int(s.Int(intBits))
		case "pending":
			k, rec.Pending = 30, scanProposal(&s)
		case "phase_entered":
			k = 31
			rec.PhaseEntered = map[string]int{}
			for more := s.Object(); more; more = s.More('}') {
				key := s.MapKey()
				rec.PhaseEntered[key] = int(s.Int(intBits))
			}
		case "phase_residence":
			k = 32
			rec.PhaseResidence = map[string]time.Duration{}
			for more := s.Object(); more; more = s.More('}') {
				key := s.MapKey()
				rec.PhaseResidence[key] = time.Duration(s.Int(64))
			}
		case "resid_phase":
			k, rec.ResidPhase = 33, s.String()
		case "resid_since":
			k, rec.ResidSince = 34, s.Time()
		case "pending_digest":
			k, rec.PendingDigest = 35, s.String()
		default:
			return false
		}
		if seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
	}
	return s.End()
}

// scanEvents reads an array of events; like encoding/json it makes
// [] an empty, non-nil slice.
func scanEvents(s *jsonenc.Scanner) []Event {
	evs := []Event{}
	for more := s.Array(); more; more = s.More(']') {
		evs = append(evs, Event{})
		scanEvent(s, &evs[len(evs)-1])
	}
	return evs
}

func scanEvent(s *jsonenc.Scanner, ev *Event) {
	var seen uint
	for more := s.Object(); more; more = s.More('}') {
		var k uint
		switch string(s.Key()) {
		case "seq":
			k, ev.Seq = 0, int(s.Int(intBits))
		case "time":
			k, ev.Time = 1, s.Time()
		case "kind":
			k, ev.Kind = 2, EventKind(s.String())
		case "actor":
			k, ev.Actor = 3, s.String()
		case "phase":
			k, ev.Phase = 4, s.String()
		case "from_phase":
			k, ev.FromPhase = 5, s.String()
		case "detail":
			k, ev.Detail = 6, s.String()
		case "deviation":
			k, ev.Deviation = 7, s.Bool()
		case "action_uri":
			k, ev.ActionURI = 8, s.String()
		case "invocation":
			k, ev.Invocation = 9, s.String()
		case "status":
			k, ev.Status = 10, s.String()
		default:
			s.Fail()
		}
		if seen&(1<<k) != 0 {
			s.Fail()
		}
		seen |= 1 << k
	}
}

func scanExecutions(s *jsonenc.Scanner) []ActionExecution {
	exs := []ActionExecution{}
	for more := s.Array(); more; more = s.More(']') {
		exs = append(exs, ActionExecution{})
		ex := &exs[len(exs)-1]
		var seen uint
		for more := s.Object(); more; more = s.More('}') {
			var k uint
			switch string(s.Key()) {
			case "invocation_id":
				k, ex.InvocationID = 0, s.String()
			case "action_uri":
				k, ex.ActionURI = 1, s.String()
			case "action_name":
				k, ex.ActionName = 2, s.String()
			case "phase":
				k, ex.Phase = 3, s.String()
			case "started_at":
				k, ex.StartedAt = 4, s.Time()
			case "last_status":
				k, ex.LastStatus = 5, s.String()
			case "last_detail":
				k, ex.LastDetail = 6, s.String()
			case "terminal":
				k, ex.Terminal = 7, s.Bool()
			case "updates":
				k, ex.Updates = 8, int(s.Int(intBits))
			case "dispatch_err":
				k, ex.DispatchErr = 9, s.String()
			default:
				s.Fail()
			}
			if seen&(1<<k) != 0 {
				s.Fail()
			}
			seen |= 1 << k
		}
	}
	return exs
}

func scanRef(s *jsonenc.Scanner) *resource.Ref {
	ref := &resource.Ref{}
	var seen uint
	for more := s.Object(); more; more = s.More('}') {
		var k uint
		switch string(s.Key()) {
		case "uri":
			k, ref.URI = 0, s.String()
		case "type":
			k, ref.Type = 1, s.String()
		case "credentials":
			k, ref.Credentials = 2, scanStringMap(s)
		default:
			s.Fail()
		}
		if seen&(1<<k) != 0 {
			s.Fail()
		}
		seen |= 1 << k
	}
	return ref
}

func scanHistoryRef(s *jsonenc.Scanner) HistoryRef {
	var h HistoryRef
	var seen uint
	for more := s.Object(); more; more = s.More('}') {
		var k uint
		switch string(s.Key()) {
		case "archive":
			k, h.Archive = 0, s.Uint(64)
		case "from":
			k, h.From = 1, int(s.Int(intBits))
		case "to":
			k, h.To = 2, int(s.Int(intBits))
		default:
			s.Fail()
		}
		if seen&(1<<k) != 0 {
			s.Fail()
		}
		seen |= 1 << k
	}
	return h
}

func scanProposal(s *jsonenc.Scanner) *ChangeProposal {
	p := &ChangeProposal{}
	var seen uint
	for more := s.Object(); more; more = s.More('}') {
		var k uint
		switch string(s.Key()) {
		case "proposed_by":
			k, p.ProposedBy = 0, s.String()
		case "proposed_at":
			k, p.ProposedAt = 1, s.Time()
		case "note":
			k, p.Note = 2, s.String()
		case "new_model":
			k, p.NewModel = 3, scanModel(s)
		case "summary":
			k, p.Summary = 4, s.String()
		default:
			s.Fail()
		}
		if seen&(1<<k) != 0 {
			s.Fail()
		}
		seen |= 1 << k
	}
	return p
}

// scanStringMap reads an object of strings; like encoding/json it
// makes {} an empty, non-nil map, and a repeated key keeps its last
// value.
func scanStringMap(s *jsonenc.Scanner) map[string]string {
	m := map[string]string{}
	for more := s.Object(); more; more = s.More('}') {
		key := s.MapKey()
		m[key] = s.String()
	}
	return m
}

// scanModel decodes a model body through encoding/json, on its own
// sub-slice of the record.
func scanModel(s *jsonenc.Scanner) *core.Model {
	var m *core.Model
	if err := json.Unmarshal(s.Value(), &m); err != nil {
		s.Fail()
	}
	return m
}
