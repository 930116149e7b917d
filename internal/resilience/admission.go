package resilience

import (
	"sync/atomic"
	"time"
)

// AdmissionConfig tunes load shedding.
type AdmissionConfig struct {
	// Watermark is the commit-queue depth at which mutations start
	// shedding. 0 disables admission control.
	Watermark int
	// Resume is the depth at which shedding stops once started
	// (hysteresis; default Watermark/2). Without the gap, a queue
	// hovering at the watermark flaps admit/shed per request.
	Resume int
	// RetryAfter is the hint shed responses carry (default 1s).
	RetryAfter time.Duration
}

func (c *AdmissionConfig) defaults() {
	if c.Resume <= 0 || c.Resume >= c.Watermark {
		c.Resume = c.Watermark / 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Admission sheds mutations while the commit queue sits above the
// watermark. The depth function is sampled per decision — it should be
// O(1) (gelee feeds it the in-flight appender counts of its two
// journals).
type Admission struct {
	cfg   AdmissionConfig
	depth func() int

	shedding atomic.Bool
	shed     atomic.Int64
	admitted atomic.Int64
}

// NewAdmission builds the controller; depth must be non-nil when
// Watermark > 0.
func NewAdmission(cfg AdmissionConfig, depth func() int) *Admission {
	cfg.defaults()
	return &Admission{cfg: cfg, depth: depth}
}

// Admit returns nil to admit the mutation or a *ShedError to shed it.
func (a *Admission) Admit() error {
	if a == nil || a.cfg.Watermark <= 0 {
		return nil
	}
	d := a.depth()
	if a.shedding.Load() {
		if d > a.cfg.Resume {
			a.shed.Add(1)
			return &ShedError{Depth: d, Watermark: a.cfg.Watermark, RetryAfter: a.cfg.RetryAfter}
		}
		a.shedding.Store(false)
	} else if d >= a.cfg.Watermark {
		a.shedding.Store(true)
		a.shed.Add(1)
		return &ShedError{Depth: d, Watermark: a.cfg.Watermark, RetryAfter: a.cfg.RetryAfter}
	}
	a.admitted.Add(1)
	return nil
}

// Shed counts mutations rejected by admission control.
func (a *Admission) Shed() int64 {
	if a == nil {
		return 0
	}
	return a.shed.Load()
}

// AdmissionStats is the shedding section of the admin report.
type AdmissionStats struct {
	Watermark    int   `json:"watermark"`
	Resume       int   `json:"resume"`
	QueueDepth   int   `json:"queue_depth"`
	Shedding     bool  `json:"shedding"`
	Shed         int64 `json:"shed_total"`
	Admitted     int64 `json:"admitted_total"`
	RetryAfterMS int64 `json:"retry_after_ms"`
}

// Stats snapshots the controller.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	st := AdmissionStats{
		Watermark:    a.cfg.Watermark,
		Resume:       a.cfg.Resume,
		Shedding:     a.shedding.Load(),
		Shed:         a.shed.Load(),
		Admitted:     a.admitted.Load(),
		RetryAfterMS: a.cfg.RetryAfter.Milliseconds(),
	}
	if a.depth != nil {
		st.QueueDepth = a.depth()
	}
	return st
}
