package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one request's client-observed latency.
type sample struct {
	kind opKind
	lat  time.Duration
}

// client drives one closed loop: one keep-alive connection, the next
// request sent only after the previous reply has been read.
type client struct {
	base string
	hc   *http.Client
	// ref and refHC reach the reference server, on a connection of
	// their own.
	ref   string
	refHC *http.Client
	// population is the instance count an unfiltered page must report;
	// when growing is set (instances are being created) it is a floor.
	population int
	growing    bool

	buf     bytes.Buffer
	session string   // id of the instance the current project session created
	created []string // every instance this client created, in order
	// acked maps each instance this client moved to the target of its
	// last acknowledged advance: the state a restart must show.
	acked map[string]string

	samples   []sample // of the measured phase, pings included
	attempted int
	failed    int
	failures  []string // the first few failure reasons
}

func newClient(base string, population int, growing bool) *client {
	return &client{
		base:       base,
		hc:         newHTTPClient(),
		refHC:      newHTTPClient(),
		population: population,
		growing:    growing,
		acked:      make(map[string]string),
	}
}

// newHTTPClient holds one keep-alive connection.
func newHTTPClient() *http.Client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	c.refHC.CloseIdleConnections()
}

// run sends ops in order; record keeps their latencies as samples.
func (c *client) run(ops []op, record bool) {
	if record {
		c.samples = slices.Grow(c.samples, len(ops))
	}
	for i := range ops {
		lat, err := c.do(&ops[i])
		c.attempted++
		if record {
			c.samples = append(c.samples, sample{ops[i].kind, lat})
		}
		if err != nil {
			c.fail(fmt.Errorf("%s %s: %w", ops[i].method, ops[i].path, err))
		}
	}
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, err.Error())
	}
}

// do sends one op, times it up to the last byte of the reply, and
// checks the reply. Any refusal (429, 503), other non-2xx status,
// transport error or failed check is an error.
func (c *client) do(o *op) (time.Duration, error) {
	path := o.path
	if strings.Contains(path, sessionID) {
		if c.session == "" {
			return 0, errors.New("no session instance (instantiate failed)")
		}
		path = strings.Replace(path, sessionID, c.session, 1)
	}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	base, hc := c.base, c.hc
	if o.kind == opRef {
		base, hc = c.ref, c.refHC
	}
	req, err := http.NewRequest(o.method, base+path, body)
	if err != nil {
		return 0, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		c.buf.Reset()
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	want := http.StatusOK
	if o.kind == opInstantiate {
		want = http.StatusCreated
	}
	if resp.StatusCode != want {
		return lat, fmt.Errorf("status %d, want %d: %.200s", resp.StatusCode, want, bytes.TrimSpace(c.buf.Bytes()))
	}
	if err := c.check(o, c.buf.Bytes()); err != nil {
		return lat, err
	}
	if o.kind == opAdvance {
		id := o.inst
		if id == sessionID {
			id = c.session
		}
		c.acked[id] = o.want
	}
	return lat, nil
}

// pageItem is the part of an instance summary the checks read.
type pageItem struct {
	ID       string `json:"id"`
	ModelURI string `json:"model_uri"`
	State    string `json:"state"`
	Current  string `json:"current"`
}

type page struct {
	Items     []pageItem `json:"items"`
	Total     int        `json:"total"`
	NextAfter int64      `json:"next_after"`
}

// creationSeq recovers an instance's creation sequence from its id
// (li-NNNNNN).
func creationSeq(id string) (int64, error) {
	n, ok := strings.CutPrefix(id, "li-")
	if !ok {
		return 0, fmt.Errorf("instance id %q has no li- prefix", id)
	}
	return strconv.ParseInt(n, 10, 64)
}

// check verifies a 2xx reply against what the op asked for.
func (c *client) check(o *op, body []byte) error {
	switch o.kind {
	case opAdvance:
		if !bytes.Contains(body, []byte(`"current":"`+o.want+`"`)) {
			return fmt.Errorf("advance reply does not show the token at %q", o.want)
		}
	case opInstantiate:
		var r pageItem
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.ID == "" || r.ModelURI != o.want {
			return fmt.Errorf("instantiate reply has id %q model %q, want model %q", r.ID, r.ModelURI, o.want)
		}
		c.session = r.ID
		c.created = append(c.created, r.ID)
	case opTimeline:
		if !o.check {
			return nil
		}
		var tl struct {
			Items []struct {
				Seq   int    `json:"seq"`
				Phase string `json:"phase"`
			} `json:"items"`
		}
		if err := json.Unmarshal(body, &tl); err != nil {
			return err
		}
		reached := false
		for i, it := range tl.Items {
			if i > 0 && it.Seq <= tl.Items[i-1].Seq {
				return errors.New("timeline not in increasing seq order")
			}
			reached = reached || it.Phase == "accepted"
		}
		if len(tl.Items) > pageLimit || !reached {
			return fmt.Errorf("timeline of %d items does not show the session reaching accepted", len(tl.Items))
		}
	case opPage, opFiltered:
		if o.check {
			return c.checkPage(o, body)
		}
	case opSummary:
		if !o.check {
			return nil
		}
		var s struct{ Total, Active, Completed int }
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if s.Total != c.population || s.Active+s.Completed != s.Total {
			return fmt.Errorf("summary total %d (active %d, completed %d), want %d", s.Total, s.Active, s.Completed, c.population)
		}
	case opModel:
		if !o.check {
			return nil
		}
		var m struct{ URI string }
		if err := json.Unmarshal(body, &m); err != nil {
			return err
		}
		if m.URI != o.want {
			return fmt.Errorf("model get returned %q, want %q", m.URI, o.want)
		}
	}
	return nil
}

// checkPage verifies a population page: at most pageLimit items, in
// strictly increasing creation order past the cursor, matching the
// filter; an unfiltered page reports the whole population as total.
func (c *client) checkPage(o *op, body []byte) error {
	var p page
	if err := json.Unmarshal(body, &p); err != nil {
		return err
	}
	if len(p.Items) > pageLimit {
		return fmt.Errorf("page of %d items, limit %d", len(p.Items), pageLimit)
	}
	prev := o.after
	for _, it := range p.Items {
		seq, err := creationSeq(it.ID)
		if err != nil {
			return err
		}
		if seq <= prev {
			return fmt.Errorf("page item %s not after seq %d", it.ID, prev)
		}
		prev = seq
		if o.kind == opFiltered && (it.ModelURI != o.want || it.State != "active") {
			return fmt.Errorf("filtered page item %s is %s on %s, want active on %s", it.ID, it.State, it.ModelURI, o.want)
		}
	}
	if o.kind == opPage {
		if (!c.growing && p.Total != c.population) || (c.growing && p.Total < c.population) {
			return fmt.Errorf("unfiltered page total %d, population %d", p.Total, c.population)
		}
		if len(p.Items) == 0 && o.after < int64(c.population) {
			return fmt.Errorf("empty page after %d in a population of %d", o.after, c.population)
		}
	}
	return nil
}

// runClients runs each client over its ops concurrently and returns the
// wall time from their common start until the last one finished.
func runClients(cs []*client, ops [][]op, record bool) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ops[i], record)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// splitCounts cuts ops into consecutive segments holding counts[i]
// workload ops each (a ping goes with the op after it); ops beyond the
// counts are dropped.
func splitCounts(ops []op, counts []int) [][]op {
	segs := make([][]op, 0, len(counts))
	from, n := 0, 0
	for i, o := range ops {
		if len(segs) == len(counts) {
			break
		}
		if !o.kind.workload() {
			continue
		}
		n++
		if n == counts[len(segs)] {
			segs = append(segs, ops[from:i+1])
			from, n = i+1, 0
		}
	}
	for len(segs) < len(counts) {
		segs = append(segs, ops[from:])
		from = len(ops)
	}
	return segs
}
