package runtime

// Cockpit aggregate: the population-wide headline numbers behind the
// monitor's summary view — totals by state, phase and model, the
// deviation, failure and proposal sums, and the late count — kept up
// to date at mutation time, so a read costs O(phases + models) instead
// of a walk over every instance.
//
// Each instance records the contribution it last added (instance.agg).
// aggSync swaps that recorded contribution for the instance's current
// one, under in.mu, at the two places instance state changes: the tail
// of replayRecord, which applies every committed live mutation and
// every replayed record alike, and publish (Instantiate plus the
// replayed instantiate and snapshot images). A mutation whose journal
// append failed is never applied, so it never reaches the aggregate.
// Lock order is in.mu, then aggregate.mu; nothing holding aggregate.mu
// ever takes an instance lock.
//
// Lateness depends on the instant asked about, so it is not a plain
// counter. Late-eligible instances — active, in a phase with a
// deadline — sit in one of two heaps keyed by due time: pending (not
// late at the last swept instant, earliest due on top) and late
// (latest due on top). Aggregate(now) moves entries across as the
// reading instant passes their due time: forward from pending to late,
// or back from late to pending when a read asks about an earlier
// instant than the previous one — the wall clock stepped back, or two
// concurrent readers took the lock out of clock order. Either way a
// read costs O(k log n) for the k entries that changed side; nothing
// ever rescans the population. Lateness uses Summary.Late's predicate
// on the same wall-clock due times (see instance.currentPhase), so the
// count agrees exactly with a per-instance scan.

import (
	"container/heap"
	"maps"
	"sync"
	"time"
)

// NotStartedPhase is the ByPhase key of instances whose token is still
// at BEGIN.
const NotStartedPhase = "(not started)"

// Aggregate is the cockpit's headline numbers over the whole
// population at one instant — the monitor's summary view. The maps are
// fresh copies owned by the caller.
type Aggregate struct {
	Total      int
	Active     int
	Completed  int
	NotStarted int // token still at BEGIN
	Late       int // active, in a phase with a deadline, past it
	// ByPhase counts instances by current phase display name (the
	// phase id when the phase is unnamed; NotStartedPhase at BEGIN).
	ByPhase map[string]int
	// ByModel counts instances by model display name.
	ByModel     map[string]int
	Deviations  int // deviating phase entries, summed
	FailedSteps int // failed action executions, summed
	Proposals   int // instances with a pending change proposal
}

// aggContrib is what one instance adds to the aggregate. The fields
// are written only while holding both the instance's lock and
// aggregate.mu, so either lock alone is enough to read them.
type aggContrib struct {
	counted    bool
	state      State
	phase      string // ByPhase key; "" at BEGIN
	model      string
	deviations int
	failed     int
	proposal   bool
	// due is the current phase's deadline while the instance is
	// late-eligible; zero otherwise.
	due time.Time
}

// aggEntry is an instance's recorded contribution plus its place in
// the due heaps. idx and late are guarded by aggregate.mu alone: the
// sweep moves entries between heaps without instance locks.
type aggEntry struct {
	aggContrib
	idx  int  // position in the pending or late heap; -1 when in neither
	late bool // in the late heap
}

// contribution is the instance's current aggregate contribution;
// callers hold in.mu. It mirrors what summary() reports: the ByPhase
// key is the phase's display name, else its id, and due is the
// Summary.Due of a late-eligible instance.
func (in *instance) contribution() aggContrib {
	c := aggContrib{
		counted:    true,
		state:      in.state,
		model:      in.model.Name,
		deviations: in.deviations,
		failed:     in.failedSteps,
		proposal:   in.pending != nil,
	}
	if in.current == "" {
		return c
	}
	c.phase = in.current
	if p, due := in.currentPhase(); p != nil {
		if p.Name != "" {
			c.phase = p.Name
		}
		if in.state == StateActive {
			c.due = due
		}
	}
	return c
}

// dueHeap is an indexed binary heap of entries by due time, earliest
// first, or latest first when latest is set. It implements
// container/heap and keeps each entry's idx current.
type dueHeap struct {
	items  []*aggEntry
	latest bool
}

func (h *dueHeap) Len() int { return len(h.items) }

func (h *dueHeap) Less(i, j int) bool {
	if h.latest {
		return h.items[j].due.Before(h.items[i].due)
	}
	return h.items[i].due.Before(h.items[j].due)
}

func (h *dueHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].idx = i
	h.items[j].idx = j
}

func (h *dueHeap) Push(x any) {
	e := x.(*aggEntry)
	e.idx = len(h.items)
	h.items = append(h.items, e)
}

func (h *dueHeap) Pop() any {
	n := len(h.items) - 1
	e := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	e.idx = -1
	return e
}

// aggregate is the runtime-wide state behind Runtime.Aggregate.
type aggregate struct {
	mu         sync.Mutex
	total      int
	active     int
	completed  int
	deviations int
	failed     int
	proposals  int
	byPhase    map[string]int // "" = not started
	byModel    map[string]int
	pending    dueHeap   // late-eligible, not late at swept
	late       dueHeap   // late-eligible, late at swept
	swept      time.Time // last instant read, wall clock only
	rewinds    int64     // reads that swept backwards
}

func newAggregate() *aggregate {
	return &aggregate{
		byPhase: make(map[string]int),
		byModel: make(map[string]int),
		late:    dueHeap{latest: true},
	}
}

// recount moves the counters from an instance's recorded contribution
// to its current one; old is the zero aggContrib when the instance was
// not counted yet (instances are never removed, so cur always counts).
// Unchanged breakdown keys cost no map operation. Callers hold a.mu.
func (a *aggregate) recount(old, cur *aggContrib) {
	if !old.counted {
		a.total++
	}
	if old.state != cur.state {
		a.countState(old.state, -1)
		a.countState(cur.state, 1)
	}
	rekey(a.byPhase, old.counted, old.phase, cur.phase)
	rekey(a.byModel, old.counted, old.model, cur.model)
	a.deviations += cur.deviations - old.deviations
	a.failed += cur.failed - old.failed
	if old.proposal != cur.proposal {
		if cur.proposal {
			a.proposals++
		} else {
			a.proposals--
		}
	}
}

func (a *aggregate) countState(s State, d int) {
	switch s {
	case StateActive:
		a.active += d
	case StateCompleted:
		a.completed += d
	}
}

// rekey moves one count in m from key from (when counted) to key to,
// deleting keys that reach zero so the maps never report empty
// buckets.
func rekey(m map[string]int, counted bool, from, to string) {
	if counted {
		if from == to {
			return
		}
		if n := m[from] - 1; n != 0 {
			m[from] = n
		} else {
			delete(m, from)
		}
	}
	m[to]++
}

// enqueue places a late-eligible entry on the side of the swept instant
// its due time falls; callers hold a.mu.
func (a *aggregate) enqueue(e *aggEntry) {
	e.idx = -1
	if e.due.IsZero() {
		return
	}
	e.late = a.swept.After(e.due)
	heap.Push(a.side(e.late), e)
}

// requeue re-files a counted entry whose due time changed: a heap fix
// when it stays on the same side of the swept instant, else out of one
// heap (or none) and into the other. Callers hold a.mu.
func (a *aggregate) requeue(e *aggEntry) {
	if e.idx >= 0 && !e.due.IsZero() && a.swept.After(e.due) == e.late {
		heap.Fix(a.side(e.late), e.idx)
		return
	}
	if e.idx >= 0 {
		heap.Remove(a.side(e.late), e.idx)
	}
	a.enqueue(e)
}

// side returns the late heap or the pending one.
func (a *aggregate) side(late bool) *dueHeap {
	if late {
		return &a.late
	}
	return &a.pending
}

// sweep moves the heaps to the instant now: entries whose due time now
// is past go late, and on a backward read, late entries whose due time
// is not yet past go back to pending. Callers hold a.mu.
func (a *aggregate) sweep(now time.Time) {
	now = now.Round(0)
	switch {
	case now.After(a.swept):
		for a.pending.Len() > 0 && now.After(a.pending.items[0].due) {
			e := heap.Pop(&a.pending).(*aggEntry)
			e.late = true
			heap.Push(&a.late, e)
		}
	case now.Before(a.swept):
		a.rewinds++
		for a.late.Len() > 0 && !now.After(a.late.items[0].due) {
			e := heap.Pop(&a.late).(*aggEntry)
			e.late = false
			heap.Push(&a.pending, e)
		}
	}
	a.swept = now
}

// aggSync swaps the instance's recorded aggregate contribution for its
// current one; callers hold in.mu. Mutations that change nothing the
// aggregate counts (annotations, bindings, non-terminal reports) return
// without taking the aggregate lock.
func (r *Runtime) aggSync(in *instance) {
	cur := in.contribution()
	e := &in.agg
	if e.aggContrib == cur {
		return
	}
	a := r.agg
	a.mu.Lock()
	old := e.aggContrib
	e.aggContrib = cur
	a.recount(&old, &cur)
	switch {
	case !old.counted:
		a.enqueue(e)
	case !old.due.Equal(cur.due):
		a.requeue(e)
	}
	a.mu.Unlock()
}

// Aggregate returns the cockpit's headline numbers over the whole
// population, with lateness evaluated at now — the same predicate as
// Summary.Late. It costs O(phases + models) plus O(log n) per instance
// whose lateness changed since the previous read; the population is
// never walked. Concurrent mutations are counted either wholly or not
// at all, so each number is consistent with some interleaving.
func (r *Runtime) Aggregate(now time.Time) Aggregate {
	a := r.agg
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sweep(now)
	out := Aggregate{
		Total:       a.total,
		Active:      a.active,
		Completed:   a.completed,
		Late:        a.late.Len(),
		ByPhase:     make(map[string]int, len(a.byPhase)),
		ByModel:     maps.Clone(a.byModel),
		Deviations:  a.deviations,
		FailedSteps: a.failed,
		Proposals:   a.proposals,
	}
	for k, n := range a.byPhase {
		if k == "" {
			out.NotStarted = n
			k = NotStartedPhase
		}
		out.ByPhase[k] += n
	}
	return out
}

// aggStats reports the aggregate's bookkeeping for the admin payload:
// the pending due-heap size and the backward-sweep count.
func (r *Runtime) aggStats() (dueHeap int, rewinds int64) {
	a := r.agg
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending.Len(), a.rewinds
}
