package resilience

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a health level of the journal path.
type State int32

const (
	// Healthy: appends succeeding, mutations admitted.
	Healthy State = iota
	// Degraded: recent append failures; mutations still admitted (one
	// whose append fails returns the error and leaves no trace) but
	// operators are on notice and alert rules fire.
	Degraded
	// ReadOnly: an append-failure streak long enough that continuing
	// to acknowledge writes would silently drop durability; the Gate
	// rejects mutations until probes prove the path again.
	ReadOnly
)

func (s State) String() string {
	switch s {
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "read-only"
	default:
		return "healthy"
	}
}

// HealthConfig tunes the state machine's hysteresis.
type HealthConfig struct {
	// DegradeAfter is the consecutive-failure streak that moves
	// healthy → degraded (default 1: a single dropped record is worth
	// knowing about).
	DegradeAfter int
	// ReadOnlyAfter is the consecutive-failure streak that trips
	// read-only from any state (default 3).
	ReadOnlyAfter int
	// RecoverAfter is the consecutive-success streak that steps the
	// state down one level (default 3).
	RecoverAfter int
	// Now stamps transitions; nil means time.Now. Tests inject fakes.
	Now func() time.Time
}

func (c *HealthConfig) defaults() {
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 1
	}
	if c.ReadOnlyAfter <= 0 {
		c.ReadOnlyAfter = 3
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = 3
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// Health is the journal-path state machine. Observe is called on the
// hot write path, so the all-is-well case is a single atomic load.
type Health struct {
	cfg HealthConfig

	state atomic.Int32
	// calm short-circuits Observe(nil) while healthy with no pending
	// failure streak — the overwhelmingly common case.
	calm atomic.Bool

	failTotal atomic.Int64

	mu         sync.Mutex
	failStreak int
	okStreak   int
	since      time.Time
	lastErr    string
	latched    bool  // ForceReadOnly: no probe-driven step-down
	degraded   int64 // transitions into Degraded
	readOnly   int64 // transitions into ReadOnly
	recovered  int64 // transitions back into Healthy
	onChange   func(from, to State)
}

// NewHealth builds the state machine, starting Healthy.
func NewHealth(cfg HealthConfig) *Health {
	cfg.defaults()
	h := &Health{cfg: cfg, since: cfg.Now()}
	h.calm.Store(true)
	return h
}

// OnChange installs a transition callback, invoked with the machine's
// lock held — keep it cheap (bump a counter, publish to a feed). Set
// before the first Observe.
func (h *Health) OnChange(f func(from, to State)) { h.onChange = f }

// State is the current level; a single atomic load, safe on any path.
func (h *Health) State() State { return State(h.state.Load()) }

// Observe feeds one journal-append outcome into the machine.
func (h *Health) Observe(err error) {
	if err == nil {
		if h.calm.Load() {
			return
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		h.failStreak = 0
		h.okStreak++
		// A latched machine never steps down on successes: the journal
		// path working again says nothing about the corrupt history that
		// forced read-only (see ForceReadOnly).
		if st := State(h.state.Load()); st != Healthy && !h.latched && h.okStreak >= h.cfg.RecoverAfter {
			h.okStreak = 0
			h.transitionLocked(st, st-1)
		}
		if State(h.state.Load()) == Healthy {
			h.calm.Store(true)
		}
		return
	}
	h.failTotal.Add(1)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calm.Store(false)
	h.okStreak = 0
	h.failStreak++
	h.lastErr = err.Error()
	st := State(h.state.Load())
	switch {
	case st != ReadOnly && h.failStreak >= h.cfg.ReadOnlyAfter:
		h.transitionLocked(st, ReadOnly)
	case st == Healthy && h.failStreak >= h.cfg.DegradeAfter:
		h.transitionLocked(st, Degraded)
	}
}

func (h *Health) transitionLocked(from, to State) {
	h.state.Store(int32(to))
	h.since = h.cfg.Now()
	switch to {
	case Degraded:
		if from == Healthy {
			h.degraded++
		}
	case ReadOnly:
		h.readOnly++
	case Healthy:
		h.recovered++
	}
	if h.onChange != nil {
		h.onChange(from, to)
	}
}

// ForceReadOnly trips the machine straight to read-only and latches it
// there: unlike the streak-driven transition, no success streak —
// probe or real — ever steps a latched machine down, because the
// condition that forced it (quarantined journal corruption) is not
// something working appends repair. The latch clears only with a
// process restart, after an operator has repaired or restored the data
// directory (geleectl fsck).
func (h *Health) ForceReadOnly(reason string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calm.Store(false)
	h.latched = true
	if reason != "" {
		h.lastErr = reason
	}
	if st := State(h.state.Load()); st != ReadOnly {
		h.transitionLocked(st, ReadOnly)
	}
}

// Latched reports whether ForceReadOnly pinned the machine read-only.
func (h *Health) Latched() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.latched
}

// HealthReport is the machine's stats section of the admin report.
type HealthReport struct {
	State          string    `json:"state"`
	Since          time.Time `json:"since"`
	FailStreak     int       `json:"journal_fail_streak"`
	FailuresTotal  int64     `json:"journal_failures_total"`
	DegradedTotal  int64     `json:"degraded_transitions"`
	ReadOnlyTotal  int64     `json:"read_only_transitions"`
	RecoveredTotal int64     `json:"recoveries"`
	// Latched reports a ForceReadOnly pin (journal corruption was
	// quarantined); only a restart after repair clears it.
	Latched   bool   `json:"latched,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Report snapshots the machine.
func (h *Health) Report() HealthReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HealthReport{
		State:          State(h.state.Load()).String(),
		Since:          h.since,
		FailStreak:     h.failStreak,
		FailuresTotal:  h.failTotal.Load(),
		DegradedTotal:  h.degraded,
		ReadOnlyTotal:  h.readOnly,
		RecoveredTotal: h.recovered,
		Latched:        h.latched,
		LastError:      h.lastErr,
	}
}
