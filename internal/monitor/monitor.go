// Package monitor implements the monitoring cockpit of Fig. 2 — the
// interface "a project manager would use to visualize status and history
// of the resources under her responsibility" (§I). It answers two §II.B
// requirements: which artifacts are in a given status and which are
// late. The third, what happened to each one at any point in time, is
// the runtime's event history: the timeline routes send the page
// runtime.Events returns as is.
//
// The monitor is a pure read-side component; it never mutates lifecycle
// state, and no view deep-copies an event slice, an execution slice or
// a model. What each view costs:
//
//   - Summarize is O(phases + models). Its headline numbers are a
//     runtime aggregate (Source.Aggregate) that every mutation keeps up
//     to date, with lateness swept off due-time heaps, so a summary
//     never walks the population.
//   - Overview and Late are O(matches). They stream runtime.Summary
//     projections — maintained counters, token position, the current
//     phase's resolved due date — through Source.ForEachSummary off the
//     runtime's ordered population index, one row per matching
//     instance; the filtered variants (OverviewWhere, LateWhere) push a
//     runtime.Filter down to the secondary indexes, so a by-resource or
//     by-model view touches only its matches.
//   - PhaseStats, the per-instance drill-down, is O(phases): it reads
//     the per-phase counters the runtime maintains.
package monitor

import (
	"sort"
	"time"

	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/vclock"
)

// Source supplies instance projections — satisfied by *runtime.Runtime
// and so by *gelee.System, which embeds it. Aggregate serves the
// summary's maintained headline numbers; ForEachSummary streams the
// row views off the runtime's ordered population index, filter pushed
// down, without materializing every summary; PhaseStats (the
// incrementally maintained per-phase counters) feeds the per-instance
// drill-down.
type Source interface {
	Aggregate(now time.Time) runtime.Aggregate
	ForEachSummary(f runtime.Filter, after int64, fn func(runtime.Summary) bool)
	PhaseStats(id string, now time.Time) (map[string]runtime.PhaseStat, bool)
}

// Monitor is the cockpit query engine.
type Monitor struct {
	src   Source
	clock vclock.Clock
}

// New builds a Monitor over src; nil clock means wall clock.
func New(src Source, clock vclock.Clock) *Monitor {
	if clock == nil {
		clock = vclock.System
	}
	return &Monitor{src: src, clock: clock}
}

// Row is one artifact line of the cockpit's status-at-a-glance view.
type Row struct {
	InstanceID   string    `json:"instance_id"`
	ModelName    string    `json:"model_name"`
	ResourceURI  string    `json:"resource_uri"`
	ResourceType string    `json:"resource_type"`
	Owner        string    `json:"owner"`
	Phase        string    `json:"phase"`      // current phase id ("" = not started)
	PhaseName    string    `json:"phase_name"` // display name
	State        string    `json:"state"`
	Due          time.Time `json:"due,omitempty"`
	Late         bool      `json:"late"`
	LateBy       string    `json:"late_by,omitempty"`
	Deviations   int       `json:"deviations"`
	FailedSteps  int       `json:"failed_steps"`
	PendingInvs  int       `json:"pending_invocations"`
	HasProposal  bool      `json:"has_proposal"`
}

// row builds a cockpit line from the summary's maintained counters —
// no event scan, no execution scan.
func row(s runtime.Summary, now time.Time) Row {
	r := Row{
		InstanceID:   s.ID,
		ModelName:    s.ModelName,
		ResourceURI:  s.Resource.URI,
		ResourceType: s.Resource.Type,
		Owner:        s.Owner,
		Phase:        s.Current,
		PhaseName:    s.PhaseName,
		State:        string(s.State),
		Due:          s.Due,
		Deviations:   s.Deviations,
		FailedSteps:  s.FailedSteps,
		PendingInvs:  s.PendingInvocations,
		HasProposal:  s.Pending != "",
	}
	if s.Late(now) {
		r.Late = true
		r.LateBy = now.Sub(s.Due).Round(time.Minute).String()
	}
	return r
}

// Overview returns one row per instance, in creation order.
func (m *Monitor) Overview() []Row {
	return m.OverviewWhere(runtime.Filter{})
}

// OverviewWhere returns one row per instance matching the filter, in
// creation order. The filter is pushed down to the runtime — a
// by-resource or by-model view is served from the secondary indexes,
// O(matches) instead of O(population).
func (m *Monitor) OverviewWhere(f runtime.Filter) []Row {
	now := m.clock.Now()
	if f.Now.IsZero() {
		f.Now = now
	}
	var rows []Row
	m.src.ForEachSummary(f, 0, func(s runtime.Summary) bool {
		rows = append(rows, row(s, now))
		return true
	})
	return rows
}

// Late returns the rows of active, overdue instances, most overdue
// first — requirement §II.B.4: "with particular attention to delays".
func (m *Monitor) Late() []Row {
	return m.LateWhere(runtime.Filter{})
}

// LateWhere returns the late rows among instances matching the filter,
// most overdue first, ties in creation order. The lateness predicate
// itself is pushed down: the runtime evaluates it on the maintained
// summary counters while streaming the population (or secondary)
// index, so only late rows are ever built. Rows arrive in creation
// order and the sort is stable, so instances sharing a due date (an
// absolute deadline) list the same way on every call.
func (m *Monitor) LateWhere(f runtime.Filter) []Row {
	now := m.clock.Now()
	f.LateOnly = true
	if f.Now.IsZero() {
		f.Now = now
	}
	var rows []Row
	m.src.ForEachSummary(f, 0, func(s runtime.Summary) bool {
		rows = append(rows, row(s, f.Now))
		return true
	})
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Due.Before(rows[j].Due) })
	return rows
}

// Summary aggregates the cockpit's headline numbers.
type Summary struct {
	Total      int            `json:"total"`
	Active     int            `json:"active"`
	Completed  int            `json:"completed"`
	NotStarted int            `json:"not_started"` // token still at BEGIN
	Late       int            `json:"late"`
	ByPhase    map[string]int `json:"by_phase"` // phase display name -> count
	// ByModel is read-only: one map is shared by every summary of the
	// same ByModelVersion (see runtime.Aggregate).
	ByModel    map[string]int `json:"by_model"`
	Deviations int            `json:"deviations"`
	Failed     int            `json:"failed_actions"`
	Proposals  int            `json:"pending_proposals"`
	// ByModelVersion identifies ByModel's contents: equal versions
	// from one source mean equal maps, so a writer may cache ByModel's
	// encoding per version. 0 means unversioned.
	ByModelVersion uint64 `json:"-"`
}

// Summarize reports the cockpit's headline numbers — the "picture of
// the status of the lifecycle for each artifact at any given point in
// time" (§II.B.4) — from the runtime's maintained aggregate: O(phases +
// models) per call, independent of population size, history length
// and event-history truncation.
func (m *Monitor) Summarize() Summary {
	a := m.src.Aggregate(m.clock.Now())
	return Summary{
		Total:      a.Total,
		Active:     a.Active,
		Completed:  a.Completed,
		NotStarted: a.NotStarted,
		Late:       a.Late,
		ByPhase:    a.ByPhase,
		ByModel:    a.ByModel,
		Deviations: a.Deviations,
		Failed:     a.FailedSteps,
		Proposals:  a.Proposals,

		ByModelVersion: a.ByModelVersion,
	}
}

// PhaseStats measures time spent per phase for one instance:
// cumulative residence time, with ongoing residence counted up to now
// (or to completion for completed instances). Monitoring is a
// first-class purpose of empty phases (§IV.A). Since the incremental
// rewrite the numbers come from counters the runtime maintains at
// mutation time — O(phases), no event rescan — so they cover the full
// history even when ring truncation has dropped old events from
// memory, and they are rebuilt on journal replay like every other
// counter. PhaseBreakdown adds the entered counts.
func (m *Monitor) PhaseStats(instanceID string) (map[string]time.Duration, bool) {
	stats, ok := m.PhaseBreakdown(instanceID)
	if !ok {
		return nil, false
	}
	out := make(map[string]time.Duration, len(stats))
	for p, s := range stats {
		out[p] = s.Residence
	}
	return out, true
}

// PhaseBreakdown is PhaseStats with entered counts: how many times the
// token entered each phase and the cumulative residence per phase.
func (m *Monitor) PhaseBreakdown(instanceID string) (map[string]runtime.PhaseStat, bool) {
	return m.src.PhaseStats(instanceID, m.clock.Now())
}
