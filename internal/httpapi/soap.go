package httpapi

import (
	"encoding/xml"
	"fmt"
	"io"
	"net/http"

	"github.com/liquidpub/gelee/internal/runtime"
)

// The SOAP subset: the two operations the execution widgets of the
// paper's prototype issue against the lifecycle manager — getInstance
// (poll state) and advance (move the token). Both travel in SOAP 1.1
// envelopes under the urn:gelee:lifecycle namespace; errors come back
// as standard SOAP Faults.

type soapEnvelopeIn struct {
	XMLName xml.Name   `xml:"Envelope"`
	Body    soapBodyIn `xml:"Body"`
}

type soapBodyIn struct {
	Advance     *soapAdvance     `xml:"urn:gelee:lifecycle advance"`
	GetInstance *soapGetInstance `xml:"urn:gelee:lifecycle getInstance"`
}

type soapAdvance struct {
	InstanceID string `xml:"instanceId"`
	To         string `xml:"to"`
	Actor      string `xml:"actor"`
	Annotation string `xml:"annotation"`
}

type soapGetInstance struct {
	InstanceID string `xml:"instanceId"`
}

type soapEnvelopeOut struct {
	XMLName xml.Name    `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    soapBodyOut `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type soapBodyOut struct {
	Instance *soapInstance `xml:"urn:gelee:lifecycle instanceState,omitempty"`
	Fault    *soapFault    `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault,omitempty"`
}

type soapInstance struct {
	ID        string   `xml:"id"`
	ModelName string   `xml:"modelName"`
	State     string   `xml:"state"`
	Current   string   `xml:"current"`
	Suggested []string `xml:"suggested>phase"`
}

type soapFault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
}

// toSOAPInstance builds the wire view from the lightweight summary:
// SOAP clients only poll identity, state and suggested moves, so the
// runtime never deep-copies a history for them.
func toSOAPInstance(s runtime.Summary) *soapInstance {
	return &soapInstance{
		ID:        s.ID,
		ModelName: s.ModelName,
		State:     string(s.State),
		Current:   s.Current,
		Suggested: s.NextSuggested,
	}
}

func writeSOAP(w http.ResponseWriter, status int, body soapBodyOut) {
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.WriteHeader(status)
	out, err := xml.MarshalIndent(soapEnvelopeOut{Body: body}, "", "  ")
	if err != nil {
		return
	}
	w.Write([]byte(xml.Header))
	w.Write(out)
}

func soapFaultOut(w http.ResponseWriter, code, msg string) {
	// SOAP 1.1 carries faults with HTTP 500.
	writeSOAP(w, http.StatusInternalServerError, soapBodyOut{Fault: &soapFault{Code: code, String: msg}})
}

func (s *Server) handleSOAP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		soapFaultOut(w, "soap:Client", err.Error())
		return
	}
	var env soapEnvelopeIn
	if err := xml.Unmarshal(body, &env); err != nil {
		soapFaultOut(w, "soap:Client", fmt.Sprintf("malformed envelope: %v", err))
		return
	}
	switch {
	case env.Body.Advance != nil:
		// advance mutates, so it passes the same resilience gate as
		// the REST routes; SOAP 1.1 carries the rejection as a Fault.
		if err := s.b.AdmitMutation(); err != nil {
			soapFaultOut(w, "soap:Server", err.Error())
			return
		}
		op := env.Body.Advance
		actor := op.Actor
		if actor == "" {
			actor = s.user(r)
		}
		if s.opts.RequireAuth && (actor == "" || !s.b.UserExists(actor)) {
			soapFaultOut(w, "soap:Client", "missing or unknown actor")
			return
		}
		res, err := s.b.AdvanceSummary(op.InstanceID, op.To, actor, runtime.AdvanceOptions{Annotation: op.Annotation})
		if err != nil {
			soapFaultOut(w, "soap:Server", err.Error())
			return
		}
		writeSOAP(w, http.StatusOK, soapBodyOut{Instance: toSOAPInstance(res.Summary)})
	case env.Body.GetInstance != nil:
		sum, ok := s.b.Summary(env.Body.GetInstance.InstanceID)
		if !ok {
			soapFaultOut(w, "soap:Server", "no such instance")
			return
		}
		writeSOAP(w, http.StatusOK, soapBodyOut{Instance: toSOAPInstance(sum)})
	default:
		soapFaultOut(w, "soap:Client", "unknown operation (want advance or getInstance)")
	}
}
