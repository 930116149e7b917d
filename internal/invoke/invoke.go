// Package invoke carries action invocations from the lifecycle manager
// to action implementations and status updates back. It implements the
// §IV.C contract: "the action is invoked by calling an URI that
// identifies a web service (either REST or SOAP), passing as parameters
// a link to the object and a callback URI. Upon completion, or
// periodically during execution, the action can then call the callback
// URI and update on its status."
//
// Three transports are provided: REST (JSON over HTTP POST), SOAP (a
// minimal SOAP 1.1 envelope over HTTP POST), and local (in-process
// handler table) for embedded deployments and tests. A Dispatcher picks
// the transport from the resolved implementation's protocol, and —
// when configured with a resilience.BreakerSet — guards every remote
// send with a per-endpoint circuit breaker, in-flight cap and jittered
// retry, so one wedged action service cannot wedge the runtime.
//
// Every HTTP call is context-propagated with a configurable per-attempt
// timeout (DefaultTimeout unless overridden) and rides one shared
// transport with fixed connection bounds (see sharedTransport) —
// dispatch volume reuses connections instead of minting a client per
// call. A Client field on an invoker replaces it, which tests use.
package invoke

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/resilience"
)

// DefaultTimeout bounds one HTTP attempt when no Timeout option and no
// caller deadline is set — the old hardcoded client timeout, now just
// a default.
const DefaultTimeout = 30 * time.Second

// sharedTransport is the one connection pool every outcall rides, the
// REST and SOAP invokers and the callback client alike: connections
// are reused across dispatches and capped at 128 per host (256 idle in
// all, 32 per host) so a burst against one endpoint cannot exhaust
// file descriptors.
var sharedTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	t.MaxConnsPerHost = 128
	t.IdleConnTimeout = 90 * time.Second
	return t
}()

// sharedClient has no client-level timeout: deadlines come from the
// per-attempt context, which composes with caller cancellation.
var sharedClient = &http.Client{Transport: sharedTransport}

// attemptContext applies the per-attempt timeout: an explicit option
// wins, otherwise DefaultTimeout — unless the caller's own deadline is
// already tighter.
func attemptContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= timeout {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// postJSON POSTs body to url under the attempt context and treats any
// non-2xx as an error.
func postJSON(ctx context.Context, client *http.Client, timeout time.Duration, url, contentType string, body []byte, hdr map[string]string) error {
	ctx, cancel := attemptContext(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if client == nil {
		client = sharedClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("status %s", resp.Status)
	}
	return nil
}

// WireInvocation is the JSON body POSTed to a REST action endpoint.
type WireInvocation struct {
	ID           string            `json:"invocation_id"`
	TypeURI      string            `json:"action_type"`
	ActionName   string            `json:"action_name,omitempty"`
	ResourceURI  string            `json:"resource_uri"`
	ResourceType string            `json:"resource_type"`
	CallbackURI  string            `json:"callback_uri"`
	Params       map[string]string `json:"params,omitempty"`
	Credentials  map[string]string `json:"credentials,omitempty"`
}

// WireStatus is the JSON body an action POSTs to its callback URI.
type WireStatus struct {
	InvocationID string `json:"invocation_id"`
	Message      string `json:"message"`
	Detail       string `json:"detail,omitempty"`
}

// ToWire converts a runtime invocation to its wire form.
func ToWire(inv actionlib.Invocation) WireInvocation {
	return WireInvocation{
		ID:           inv.ID,
		TypeURI:      inv.TypeURI,
		ActionName:   inv.ActionName,
		ResourceURI:  inv.ResourceURI,
		ResourceType: inv.ResourceType,
		CallbackURI:  inv.CallbackURI,
		Params:       inv.Params,
		Credentials:  inv.Credentials,
	}
}

// FromWire converts a wire invocation back to the runtime form.
// Endpoint and protocol are not on the wire — the receiver is the
// endpoint.
func FromWire(w WireInvocation) actionlib.Invocation {
	return actionlib.Invocation{
		ID:           w.ID,
		TypeURI:      w.TypeURI,
		ActionName:   w.ActionName,
		ResourceURI:  w.ResourceURI,
		ResourceType: w.ResourceType,
		CallbackURI:  w.CallbackURI,
		Params:       w.Params,
		Credentials:  w.Credentials,
	}
}

// DecodeInvocation reads a WireInvocation from a request body.
func DecodeInvocation(r io.Reader) (actionlib.Invocation, error) {
	var w WireInvocation
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return actionlib.Invocation{}, fmt.Errorf("invoke: decode invocation: %w", err)
	}
	if w.ID == "" {
		return actionlib.Invocation{}, fmt.Errorf("invoke: invocation without id")
	}
	return FromWire(w), nil
}

// RESTInvoker POSTs invocations as JSON to the implementation endpoint.
type RESTInvoker struct {
	// Client overrides the shared pooled client (mostly tests).
	Client *http.Client
	// Timeout bounds one POST (0 = DefaultTimeout).
	Timeout time.Duration
}

// Invoke implements runtime.Invoker semantics for REST endpoints. A
// non-2xx response is a dispatch failure.
func (ri *RESTInvoker) Invoke(ctx context.Context, inv actionlib.Invocation) error {
	body, err := json.Marshal(ToWire(inv))
	if err != nil {
		return fmt.Errorf("invoke: encode invocation %s: %w", inv.ID, err)
	}
	if err := postJSON(ctx, ri.Client, ri.Timeout, inv.Endpoint, "application/json", body, nil); err != nil {
		return fmt.Errorf("invoke: POST %s: %w", inv.Endpoint, err)
	}
	return nil
}

// soapEnvelope is the minimal SOAP 1.1 wrapper used by the SOAP
// transport.
type soapEnvelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Body    soapBody `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type soapBody struct {
	Invoke *soapInvoke `xml:"urn:gelee:actions invoke,omitempty"`
}

type soapInvoke struct {
	ID           string      `xml:"invocationId"`
	TypeURI      string      `xml:"actionType"`
	ResourceURI  string      `xml:"resourceUri"`
	ResourceType string      `xml:"resourceType"`
	CallbackURI  string      `xml:"callbackUri"`
	Params       []soapParam `xml:"params>param"`
}

type soapParam struct {
	ID    string `xml:"id,attr"`
	Value string `xml:",chardata"`
}

// SOAPInvoker wraps the invocation in a SOAP envelope.
type SOAPInvoker struct {
	// Client overrides the shared pooled client (mostly tests).
	Client *http.Client
	// Timeout bounds one POST (0 = DefaultTimeout).
	Timeout time.Duration
}

// Invoke POSTs a SOAP envelope to the endpoint.
func (si *SOAPInvoker) Invoke(ctx context.Context, inv actionlib.Invocation) error {
	env := soapEnvelope{Body: soapBody{Invoke: &soapInvoke{
		ID:           inv.ID,
		TypeURI:      inv.TypeURI,
		ResourceURI:  inv.ResourceURI,
		ResourceType: inv.ResourceType,
		CallbackURI:  inv.CallbackURI,
	}}}
	for k, v := range inv.Params {
		env.Body.Invoke.Params = append(env.Body.Invoke.Params, soapParam{ID: k, Value: v})
	}
	body, err := xml.Marshal(env)
	if err != nil {
		return fmt.Errorf("invoke: encode SOAP %s: %w", inv.ID, err)
	}
	payload := append([]byte(xml.Header), body...)
	hdr := map[string]string{"SOAPAction": "urn:gelee:actions#invoke"}
	if err := postJSON(ctx, si.Client, si.Timeout, inv.Endpoint, "text/xml; charset=utf-8", payload, hdr); err != nil {
		return fmt.Errorf("invoke: SOAP POST %s: %w", inv.Endpoint, err)
	}
	return nil
}

// DecodeSOAPInvocation parses a SOAP envelope into an invocation.
func DecodeSOAPInvocation(r io.Reader) (actionlib.Invocation, error) {
	var env soapEnvelope
	if err := xml.NewDecoder(r).Decode(&env); err != nil {
		return actionlib.Invocation{}, fmt.Errorf("invoke: decode SOAP: %w", err)
	}
	if env.Body.Invoke == nil {
		return actionlib.Invocation{}, fmt.Errorf("invoke: SOAP body has no invoke element")
	}
	in := env.Body.Invoke
	inv := actionlib.Invocation{
		ID:           in.ID,
		TypeURI:      in.TypeURI,
		ResourceURI:  in.ResourceURI,
		ResourceType: in.ResourceType,
		CallbackURI:  in.CallbackURI,
		Params:       make(map[string]string, len(in.Params)),
	}
	for _, p := range in.Params {
		inv.Params[p.ID] = p.Value
	}
	return inv, nil
}

// Handler is an in-process action implementation: perform the operation
// and return the terminal status detail. Returning an error reports the
// reserved failed status; otherwise completed is reported. Handlers may
// send intermediate updates through the Reporter first.
type Handler func(inv actionlib.Invocation, report Reporter) (detail string, err error)

// Reporter delivers status updates back to the lifecycle manager.
type Reporter interface {
	Report(up actionlib.StatusUpdate) error
}

// LocalInvoker routes invocations to registered in-process handlers by
// endpoint key and reports the terminal status itself. It exercises the
// same resolution and callback code paths as the HTTP transports minus
// the network.
type LocalInvoker struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	reporter Reporter
}

// NewLocalInvoker returns a LocalInvoker reporting through r.
func NewLocalInvoker(r Reporter) *LocalInvoker {
	return &LocalInvoker{handlers: make(map[string]Handler), reporter: r}
}

// Register installs the handler for an endpoint key (e.g.
// "local://gdoc/chr"). Re-registering replaces.
func (li *LocalInvoker) Register(endpoint string, h Handler) {
	li.mu.Lock()
	defer li.mu.Unlock()
	li.handlers[endpoint] = h
}

// Invoke implements runtime.Invoker. The context gates the start of the
// call; handlers themselves are not cancelable.
func (li *LocalInvoker) Invoke(ctx context.Context, inv actionlib.Invocation) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	li.mu.RLock()
	h, ok := li.handlers[inv.Endpoint]
	li.mu.RUnlock()
	if !ok {
		return fmt.Errorf("invoke: no local handler for endpoint %q", inv.Endpoint)
	}
	detail, err := h(inv, li.reporter)
	up := actionlib.StatusUpdate{InvocationID: inv.ID, Message: actionlib.StatusCompleted, Detail: detail}
	if err != nil {
		up.Message = actionlib.StatusFailed
		up.Detail = err.Error()
	}
	return li.reporter.Report(up)
}

// Dispatcher routes by implementation protocol — the single Invoker the
// runtime is configured with in full deployments. When Breakers is set,
// remote (REST/SOAP) sends are guarded: a per-endpoint circuit breaker
// and in-flight cap decide admission, and admitted sends retry up to
// Attempts times with jittered exponential backoff. Invocations carry a
// unique id end to end, so retried deliveries are deduplicable by the
// receiver. Local dispatch is in-process and never guarded.
type Dispatcher struct {
	REST  *RESTInvoker
	SOAP  *SOAPInvoker
	Local *LocalInvoker

	// Breakers guards remote sends per endpoint; nil = direct sends.
	Breakers *resilience.BreakerSet
	// Attempts per remote send (0 or 1 = no retry).
	Attempts int
	// Retry shapes the backoff between attempts.
	Retry resilience.Backoff
}

// Invoke implements runtime.Invoker.
func (d *Dispatcher) Invoke(ctx context.Context, inv actionlib.Invocation) error {
	switch inv.Protocol {
	case actionlib.ProtocolREST:
		if d.REST == nil {
			return fmt.Errorf("invoke: REST transport not configured")
		}
		return d.send(ctx, inv, d.REST.Invoke)
	case actionlib.ProtocolSOAP:
		if d.SOAP == nil {
			return fmt.Errorf("invoke: SOAP transport not configured")
		}
		return d.send(ctx, inv, d.SOAP.Invoke)
	case actionlib.ProtocolLocal:
		if d.Local == nil {
			return fmt.Errorf("invoke: local transport not configured")
		}
		return d.Local.Invoke(ctx, inv)
	}
	return fmt.Errorf("invoke: unknown protocol %q", inv.Protocol)
}

// send wraps one remote transport call in the breaker/retry guard.
func (d *Dispatcher) send(ctx context.Context, inv actionlib.Invocation, f func(context.Context, actionlib.Invocation) error) error {
	if d.Breakers == nil {
		return f(ctx, inv)
	}
	release, err := d.Breakers.Acquire(inv.Endpoint)
	if err != nil {
		return fmt.Errorf("invoke: %s: %w", inv.ID, err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	err = resilience.Retry(ctx, d.Attempts, d.Retry, func(ctx context.Context) error {
		return f(ctx, inv)
	})
	release(err)
	return err
}

// CallbackClient is what remote (HTTP-hosted) action implementations use
// to report status: POST the WireStatus JSON to the callback URI.
type CallbackClient struct {
	// Client overrides the shared pooled client (mostly tests).
	Client *http.Client
	// Timeout bounds one POST (0 = DefaultTimeout).
	Timeout time.Duration
}

// Send posts the status update to callbackURI.
func (cc *CallbackClient) Send(callbackURI string, up actionlib.StatusUpdate) error {
	return cc.SendContext(context.Background(), callbackURI, up)
}

// SendContext is Send under a caller-controlled context.
func (cc *CallbackClient) SendContext(ctx context.Context, callbackURI string, up actionlib.StatusUpdate) error {
	body, err := json.Marshal(WireStatus{InvocationID: up.InvocationID, Message: up.Message, Detail: up.Detail})
	if err != nil {
		return err
	}
	if err := postJSON(ctx, cc.Client, cc.Timeout, callbackURI, "application/json", body, nil); err != nil {
		return fmt.Errorf("invoke: callback POST %s: %w", callbackURI, err)
	}
	return nil
}

// DecodeStatus reads a WireStatus from a callback request body.
func DecodeStatus(r io.Reader) (actionlib.StatusUpdate, error) {
	var w WireStatus
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return actionlib.StatusUpdate{}, fmt.Errorf("invoke: decode status: %w", err)
	}
	if w.InvocationID == "" {
		return actionlib.StatusUpdate{}, fmt.Errorf("invoke: status without invocation id")
	}
	return actionlib.StatusUpdate{InvocationID: w.InvocationID, Message: w.Message, Detail: w.Detail}, nil
}
