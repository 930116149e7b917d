package runtime

// The journal-record codec. Encoding rides the write path of every
// persisted mutation, under the instance lock, so it is hand-rolled
// for the hot record shapes: a token move's record costs more to
// marshal through encoding/json reflection than the move itself costs
// to apply. Records carrying the rare deep payloads — a model body, a
// resource ref, binding maps — fall back to json.Marshal; they occur
// once per instance (instantiate), per model version and journal
// generation (RecModel) or per bind, not per move. Propose and switch
// records name their model by digest and take the fast path. Decoding is always encoding/json
// (ApplyJournal), and TestCodecEquivalence pins that the fast encoder
// and the reflection encoder decode to identical records.

import (
	"encoding/json"
	"strconv"

	"github.com/liquidpub/gelee/internal/jsonenc"
)

// Encode renders the record as the JSON document ApplyJournal decodes.
func (rec *JournalRecord) Encode() ([]byte, error) {
	if rec.Model != nil || rec.Resource != nil || rec.Bindings != nil || rec.Unresolved != nil {
		return json.Marshal(rec)
	}
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
	if rec.Seq != 0 {
		buf = append(buf, `,"seq":`...)
		buf = strconv.AppendInt(buf, rec.Seq, 10)
	}
	if rec.Owner != "" {
		buf = append(buf, `,"owner":`...)
		buf = jsonenc.AppendString(buf, rec.Owner)
	}
	if !rec.CreatedAt.IsZero() {
		buf = append(buf, `,"created_at":`...)
		buf = jsonenc.AppendTime(buf, rec.CreatedAt)
	}
	if rec.ModelDigest != "" {
		buf = append(buf, `,"model_digest":`...)
		buf = jsonenc.AppendString(buf, rec.ModelDigest)
	}
	if rec.To != "" {
		buf = append(buf, `,"to":`...)
		buf = jsonenc.AppendString(buf, rec.To)
	}
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
	if rec.Invocation != "" {
		buf = append(buf, `,"invocation":`...)
		buf = jsonenc.AppendString(buf, rec.Invocation)
	}
	if rec.Status != "" {
		buf = append(buf, `,"status":`...)
		buf = jsonenc.AppendString(buf, rec.Status)
	}
	if rec.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = jsonenc.AppendString(buf, rec.Detail)
	}
	if rec.Terminal {
		buf = append(buf, `,"terminal":true`...)
	}
	if rec.Proposer != "" {
		buf = append(buf, `,"proposer":`...)
		buf = jsonenc.AppendString(buf, rec.Proposer)
	}
	if !rec.ProposedAt.IsZero() {
		buf = append(buf, `,"proposed_at":`...)
		buf = jsonenc.AppendTime(buf, rec.ProposedAt)
	}
	if rec.Note != "" {
		buf = append(buf, `,"note":`...)
		buf = jsonenc.AppendString(buf, rec.Note)
	}
	if rec.DiffSummary != "" {
		buf = append(buf, `,"diff_summary":`...)
		buf = jsonenc.AppendString(buf, rec.DiffSummary)
	}
	if rec.Landing != "" {
		buf = append(buf, `,"landing":`...)
		buf = jsonenc.AppendString(buf, rec.Landing)
	}
	if rec.State != "" {
		buf = append(buf, `,"state":`...)
		buf = jsonenc.AppendString(buf, string(rec.State))
	}
	if rec.Current != "" {
		buf = append(buf, `,"current":`...)
		buf = jsonenc.AppendString(buf, rec.Current)
	}
	if !rec.CompletedAt.IsZero() {
		buf = append(buf, `,"completed_at":`...)
		buf = jsonenc.AppendTime(buf, rec.CompletedAt)
	}
	if rec.ModelURI != "" {
		buf = append(buf, `,"model_uri":`...)
		buf = jsonenc.AppendString(buf, rec.ModelURI)
	}
	return append(buf, '}'), nil
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
	if ev.Actor != "" {
		buf = append(buf, `,"actor":`...)
		buf = jsonenc.AppendString(buf, ev.Actor)
	}
	if ev.Phase != "" {
		buf = append(buf, `,"phase":`...)
		buf = jsonenc.AppendString(buf, ev.Phase)
	}
	if ev.FromPhase != "" {
		buf = append(buf, `,"from_phase":`...)
		buf = jsonenc.AppendString(buf, ev.FromPhase)
	}
	if ev.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = jsonenc.AppendString(buf, ev.Detail)
	}
	if ev.Deviation {
		buf = append(buf, `,"deviation":true`...)
	}
	if ev.ActionURI != "" {
		buf = append(buf, `,"action_uri":`...)
		buf = jsonenc.AppendString(buf, ev.ActionURI)
	}
	if ev.Invocation != "" {
		buf = append(buf, `,"invocation":`...)
		buf = jsonenc.AppendString(buf, ev.Invocation)
	}
	if ev.Status != "" {
		buf = append(buf, `,"status":`...)
		buf = jsonenc.AppendString(buf, ev.Status)
	}
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
	if ex.LastStatus != "" {
		buf = append(buf, `,"last_status":`...)
		buf = jsonenc.AppendString(buf, ex.LastStatus)
	}
	if ex.LastDetail != "" {
		buf = append(buf, `,"last_detail":`...)
		buf = jsonenc.AppendString(buf, ex.LastDetail)
	}
	buf = append(buf, `,"terminal":`...)
	buf = strconv.AppendBool(buf, ex.Terminal)
	buf = append(buf, `,"updates":`...)
	buf = strconv.AppendInt(buf, int64(ex.Updates), 10)
	if ex.DispatchErr != "" {
		buf = append(buf, `,"dispatch_err":`...)
		buf = jsonenc.AppendString(buf, ex.DispatchErr)
	}
	return append(buf, '}')
}
