// Package resilience turns the engine's health signals into behavior:
// admission control when the commit queue saturates, a degraded
// read-only mode when journal persistence starts failing, circuit
// breakers and bounded concurrency around action outcalls, and
// threshold-driven alerting. The store and runtime layers expose queue
// depth and journal-error counters; this package is where
// those numbers stop being dashboard decoration and start shedding,
// tripping and alerting.
//
// # Health state machine
//
// Health tracks the durability of the journal path through three
// states with hysteresis on both edges:
//
//	healthy ──(DegradeAfter consecutive append failures)──▶ degraded
//	degraded ──(ReadOnlyAfter consecutive failures)──▶ read-only
//	read-only ──(RecoverAfter consecutive successes)──▶ degraded
//	degraded ──(RecoverAfter consecutive successes)──▶ healthy
//
// Every journal append outcome — the store's commit result, the
// instance collection's append result, the runtime's record path — is
// fed to Health.Observe. A single glitch degrades (the
// operator should know), a streak trips read-only: from then on the
// Gate rejects mutations with ErrReadOnly so a dying disk can no
// longer silently acknowledge unjournaled writes. Because rejected
// mutations generate no journal traffic, read-only mode cannot recover
// organically; recovery is probe-based — the owner periodically
// writes a no-op probe record through the same journal path and feeds
// the outcome back to Observe, so RecoverAfter consecutive probe
// successes step the state back down and real traffic finishes the
// recovery.
//
// # Breaker semantics
//
// Breakers guard outcalls per endpoint with the classic three states:
//
//	closed ──(Failures consecutive errors)──▶ open
//	open ──(Cooldown elapsed)──▶ half-open
//	half-open: at most HalfOpenProbes trial calls; one success closes,
//	one failure re-opens.
//
// While open, Acquire fails fast with ErrBreakerOpen — a wedged action
// service costs one timeout per Cooldown instead of one per dispatch.
// Each breaker also caps in-flight calls (MaxInFlight), so a slow
// endpoint saturates its own lane, not the dispatcher's goroutine
// budget. Keys are endpoint URLs: one bad service never affects
// another's breaker.
//
// Admission, Gate, Backoff/Retry and the alert Watcher/Feed complete
// the layer; gelee.Options.Resilience wires all of it together.
package resilience

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Sentinel errors the HTTP layer maps onto status codes (429 for
// shedding, 503 for read-only, 503 for breaker/capacity rejections on
// the dispatch path).
var (
	// ErrReadOnly rejects mutations while Health is in read-only mode.
	ErrReadOnly = errors.New("resilience: read-only mode (journal persistence failing)")
	// ErrShed rejects mutations while the commit queue is saturated.
	ErrShed = errors.New("resilience: overloaded")
	// ErrBreakerOpen fails an outcall fast while its breaker is open.
	ErrBreakerOpen = errors.New("resilience: circuit open")
	// ErrCapacity rejects an outcall at the per-endpoint in-flight cap.
	ErrCapacity = errors.New("resilience: endpoint at capacity")
)

// ShedError is the concrete ErrShed carrying the Retry-After hint and
// the depth/watermark pair that triggered the shed.
type ShedError struct {
	Depth      int
	Watermark  int
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("resilience: overloaded: commit queue depth %d >= watermark %d (retry after %s)",
		e.Depth, e.Watermark, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrShed) hold.
func (e *ShedError) Unwrap() error { return ErrShed }

// RetryAfterOf extracts the Retry-After hint from a shed error, or 0.
func RetryAfterOf(err error) time.Duration {
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// Gate is the single mutation-admission decision the HTTP tier asks
// for: read-only mode first (durability beats availability), then load
// shedding. Reads are never gated. A nil Gate admits everything.
type Gate struct {
	Health    *Health
	Admission *Admission

	readOnlyRejected atomic.Int64
}

// AdmitMutation returns nil to admit, ErrReadOnly when the journal
// path is failing, or a *ShedError when the commit queue is saturated.
func (g *Gate) AdmitMutation() error {
	if g == nil {
		return nil
	}
	if g.Health != nil && g.Health.State() == ReadOnly {
		g.readOnlyRejected.Add(1)
		return ErrReadOnly
	}
	if g.Admission != nil {
		return g.Admission.Admit()
	}
	return nil
}

// ReadOnlyRejected counts mutations rejected in read-only mode.
func (g *Gate) ReadOnlyRejected() int64 {
	if g == nil {
		return 0
	}
	return g.readOnlyRejected.Load()
}

// ProbeStats counts durability probes issued while unhealthy.
type ProbeStats struct {
	Attempts int64 `json:"attempts"`
	Failures int64 `json:"failures"`
}

// Report is the aggregated health document served by
// GET /api/v1/admin/health — everything a load balancer or operator
// needs in one pull.
type Report struct {
	// State is the health state: "healthy", "degraded" or "read-only".
	// Load balancers should eject the node when it is "read-only".
	State            string                  `json:"state"`
	Health           HealthReport            `json:"health"`
	Admission        AdmissionStats          `json:"admission"`
	ReadOnlyRejected int64                   `json:"read_only_rejected"`
	Breakers         map[string]BreakerStats `json:"breakers,omitempty"`
	BreakerOpens     int64                   `json:"breaker_opens_total"`
	BreakerRejected  int64                   `json:"breaker_rejected_total"`
	Probes           ProbeStats              `json:"probes"`
	Alerts           AlertStats              `json:"alerts"`
	// Integrity summarizes journal corruption detection across the
	// store and instance journals (nil when the deployment has no
	// durable journals). Filled by the facade from the store layer's
	// IntegrityStats.
	Integrity *IntegrityReport `json:"integrity,omitempty"`
}

// IntegrityReport is the health endpoint's journal-integrity section:
// the corruption ledger summed across every journal directory the node
// runs (definitions store + instance collection), plus whether
// corruption latched the node read-only.
type IntegrityReport struct {
	// Framing reports that appends write checksummed record envelopes.
	Framing bool `json:"framing"`
	// CorruptFiles counts corruption detections (open + scrub);
	// QuarantinedFiles how many files were moved aside at open.
	CorruptFiles     uint64 `json:"corrupt_files"`
	QuarantinedFiles uint64 `json:"quarantined_files"`
	// TornTailsRecovered counts crash tails opens dropped — recovered,
	// not corruption.
	TornTailsRecovered uint64 `json:"torn_tails_recovered"`
	// ScrubPasses / LastScrubUnix report background-scrub progress.
	ScrubPasses   uint64 `json:"scrub_passes"`
	LastScrubUnix int64  `json:"last_scrub_unix,omitempty"`
	// ReadOnlyLatched reports that quarantined corruption pinned the
	// node read-only until restart-after-repair.
	ReadOnlyLatched bool   `json:"read_only_latched"`
	LastError       string `json:"last_error,omitempty"`
}
