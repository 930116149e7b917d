package runtime

// The persistence seam of the runtime. Every instance mutation —
// instantiate, advance, annotate, bind, report, dispatch failure,
// change propose/accept/reject, model switch — is first built as one
// typed JournalRecord, without touching the instance, then emitted
// through the Config.Journal sink while the instance's lock is held,
// and applied by the replay appliers below only once the sink
// acknowledged it (commitLocked). The journal's per-instance record
// order is therefore exactly the order a live reader could observe,
// and replaying the records through ApplyJournal (then FinishRecovery)
// runs the very code that built the live state: token positions, event
// histories, executions, pending proposals, the secondary indexes and
// every incrementally maintained counter. See the package doc's
// "Durability model" section for the contract.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
)

// Journal is the persistence sink for instance mutation records. The
// runtime calls Record once per mutation, before applying it, while
// holding the mutated instance's lock; Record must block until the record is
// durable at the sink's level (a nil error is the durability ack) and
// must never call back into the Runtime. Implementations must be safe
// for concurrent use — records for different instances are emitted in
// parallel.
type Journal interface {
	Record(rec *JournalRecord) error
}

// JournalFunc adapts a function to the Journal interface.
type JournalFunc func(*JournalRecord) error

// Record calls f.
func (f JournalFunc) Record(rec *JournalRecord) error { return f(rec) }

// RecordOp names the mutation a JournalRecord captures.
type RecordOp string

// Journal record operations, one per mutating verb — plus RecSnapshot,
// the record snapshot folding emits: not a mutation but a full
// replayable image of one instance, captured under its lock by
// EmitSnapshots and applied by replay in place of every folded record
// (see snapshot.go).
const (
	RecInstantiate  RecordOp = "instantiate"
	RecAdvance      RecordOp = "advance"
	RecAnnotate     RecordOp = "annotate"
	RecBind         RecordOp = "bind"
	RecReport       RecordOp = "report"
	RecDispatchFail RecordOp = "dispatch-fail"
	RecPropose      RecordOp = "propose"
	RecAccept       RecordOp = "accept"
	RecReject       RecordOp = "reject"
	RecSwitch       RecordOp = "switch"
	RecSnapshot     RecordOp = "snapshot"
	// RecProbe is the durability probe the resilience layer writes
	// through the sink while the system is degraded or read-only: it
	// proves the append path end to end but carries no instance state,
	// and replay discards it.
	RecProbe RecordOp = "probe"
)

// JournalRecord is one journaled instance mutation: the operation, the
// events it appended (already stamped with Seq and Time), and the
// op-specific payload replay needs to reproduce the state change
// exactly. State/Current/CompletedAt mirror the post-mutation token
// state for the ops that move it (advance, accept, switch), so replay
// never re-derives a token position from event text.
type JournalRecord struct {
	Op       RecordOp `json:"op"`
	Instance string   `json:"instance"`
	Events   []Event  `json:"events,omitempty"`

	// instantiate
	Seq        int64                        `json:"seq,omitempty"`
	Resource   *resource.Ref                `json:"resource,omitempty"`
	Owner      string                       `json:"owner,omitempty"`
	CreatedAt  time.Time                    `json:"created_at,omitempty"`
	Unresolved []string                     `json:"unresolved,omitempty"`
	Bindings   map[string]map[string]string `json:"bindings,omitempty"` // instantiate: all; bind: one action's values

	// instantiate / propose / switch
	Model *core.Model `json:"model,omitempty"`

	// advance: the executions this move created (value copies at
	// creation time — prep failures are already terminal here).
	To         string            `json:"to,omitempty"`
	Executions []ActionExecution `json:"executions,omitempty"`

	// report / dispatch-fail
	Invocation string `json:"invocation,omitempty"`
	Status     string `json:"status,omitempty"`
	Detail     string `json:"detail,omitempty"`
	Terminal   bool   `json:"terminal,omitempty"`

	// propose / switch
	Proposer    string    `json:"proposer,omitempty"`
	ProposedAt  time.Time `json:"proposed_at,omitempty"`
	Note        string    `json:"note,omitempty"`
	DiffSummary string    `json:"diff_summary,omitempty"`

	// accept / switch
	Landing string `json:"landing,omitempty"`

	// Post-mutation token-state mirrors (advance / accept / switch).
	State       State     `json:"state,omitempty"`
	Current     string    `json:"current,omitempty"`
	CompletedAt time.Time `json:"completed_at,omitempty"`
	ModelURI    string    `json:"model_uri,omitempty"` // switch: new provenance

	// snapshot (RecSnapshot) only: the counter and ring state a full
	// image needs beyond the fields above — everything ApplyJournal
	// would otherwise have re-derived from the folded records. Events
	// carries the retained in-memory ring; EventSeq the total events
	// ever recorded (numbering stays gapless past truncation);
	// Deviations the counter an event rescan could no longer rebuild
	// once the ring dropped old phase-entered events. Pending carries a
	// change proposal awaiting the owner's decision; the phase-stat
	// fields mirror the incrementally maintained per-phase drill-down.
	EventSeq       int                      `json:"event_seq,omitempty"`
	TruncatedEvs   int                      `json:"truncated_events,omitempty"`
	Deviations     int                      `json:"deviations,omitempty"`
	Pending        *ChangeProposal          `json:"pending,omitempty"`
	PhaseEntered   map[string]int           `json:"phase_entered,omitempty"`
	PhaseResidence map[string]time.Duration `json:"phase_residence,omitempty"`
	ResidPhase     string                   `json:"resid_phase,omitempty"`
	ResidSince     time.Time                `json:"resid_since,omitempty"`
}

// commitLocked is the one way a live mutation reaches an instance:
// the verb builds rec without touching the instance, commitLocked
// journals it and, only once the sink acknowledged it, applies it
// through the replay applier. The live path is therefore replay of its
// own record, and a failed append leaves nothing behind in memory — no
// event, execution, index entry or aggregate change. Callers hold
// in.mu, which makes the journal's per-instance order the apply order.
func (r *Runtime) commitLocked(in *instance, rec *JournalRecord) error {
	if err := r.journal(rec); err != nil {
		return err
	}
	return r.replayRecord(in, rec)
}

// journal emits rec through the configured sink and counts the
// outcome; a nil sink acknowledges everything. The append-error
// counter feeds the admin endpoint.
func (r *Runtime) journal(rec *JournalRecord) error {
	if r.cfg.Journal == nil {
		return nil
	}
	if err := r.cfg.Journal.Record(rec); err != nil {
		r.journalErrors.Add(1)
		return fmt.Errorf("runtime: journal %s of %s: %w", rec.Op, rec.Instance, err)
	}
	r.journalAppends.Add(1)
	return nil
}

// ---- replay --------------------------------------------------------------------

// ApplyJournal applies one persisted record during recovery — a
// mutation record, or the RecSnapshot image folding wrote. Records of
// one instance must arrive in journal order (snapshot first, then
// unfolded tail records — exactly what store.Instances.Replay
// streams), before the runtime serves any live mutation;
// FinishRecovery closes the replay and fixes the recovery stats.
// Calls for *different* instances may run concurrently — the sharded
// replay (store.Instances.ReplayParallel) relies on it: shared
// structures are guarded by their own shard/index locks or atomics.
// Records are applied without policy checks, action dispatch or
// observer delivery — the side effects already happened in the
// previous life of the process.
func (r *Runtime) ApplyJournal(id string, data []byte) error {
	var rec JournalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("runtime: decode journal record for %s: %w", id, err)
	}
	if rec.Instance == "" {
		rec.Instance = id
	}
	r.recoveryOnce.Do(func() { r.recoveryStart = time.Now() })
	r.recoveredRecords.Add(1)
	switch rec.Op {
	case RecInstantiate:
		in, err := r.newInstance(&rec)
		if err != nil {
			return err
		}
		return r.publish(in)
	case RecSnapshot:
		return r.replaySnapshot(&rec)
	case RecProbe:
		// Probes prove the append path while unhealthy; they carry no
		// state and replay drops them.
		return nil
	}
	in, ok := r.lookup(rec.Instance)
	if !ok {
		return fmt.Errorf("runtime: replay %s for unknown instance %s (missing instantiate record)", rec.Op, rec.Instance)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return r.replayRecord(in, &rec)
}

// replayRecord applies one mutation record to an existing instance and
// brings its cockpit-aggregate contribution up to date — the shared
// apply of ApplyJournal and of every live commit; callers hold in.mu.
func (r *Runtime) replayRecord(in *instance, rec *JournalRecord) error {
	defer r.aggSync(in)
	switch rec.Op {
	case RecAdvance:
		return r.replayAdvance(in, rec)
	case RecAnnotate:
		r.applyEvents(in, rec.Events)
	case RecBind:
		r.replayBind(in, rec)
	case RecReport:
		return r.replayReport(in, rec)
	case RecDispatchFail:
		return r.replayDispatchFail(in, rec)
	case RecPropose:
		r.replayPropose(in, rec)
	case RecAccept:
		return r.replayAccept(in, rec)
	case RecReject:
		in.pending = nil
		r.applyEvents(in, rec.Events)
	case RecSwitch:
		return r.replaySwitch(in, rec)
	default:
		return fmt.Errorf("runtime: replay unknown record op %q for %s", rec.Op, rec.Instance)
	}
	return nil
}

// applyEvents appends already-stamped events through the shared
// counter-maintaining path; callers hold in.mu (or own the instance).
func (r *Runtime) applyEvents(in *instance, evs []Event) {
	for _, ev := range evs {
		r.applyRecorded(in, ev)
	}
}

// newInstance builds the unpublished instance an instantiate record
// describes — the one constructor of live and replayed instantiation.
// The record must own its model, resource and bindings exclusively.
func (r *Runtime) newInstance(rec *JournalRecord) (*instance, error) {
	if rec.Model == nil || rec.Resource == nil {
		return nil, fmt.Errorf("runtime: instantiate record for %s missing model or resource", rec.Instance)
	}
	modelURI := rec.ModelURI
	if modelURI == "" {
		modelURI = rec.Model.URI
	}
	bindings := rec.Bindings
	if bindings == nil {
		bindings = make(map[string]map[string]string)
	}
	in := &instance{
		id:           rec.Instance,
		seq:          rec.Seq,
		model:        rec.Model,
		mcache:       buildModelCache(rec.Model),
		modelURI:     modelURI,
		res:          *rec.Resource,
		owner:        rec.Owner,
		state:        StateActive,
		createdAt:    rec.CreatedAt,
		instBindings: bindings,
		unresolved:   rec.Unresolved,
		executions:   make(map[string]*ActionExecution),
	}
	r.applyEvents(in, rec.Events)
	return in, nil
}

func (r *Runtime) replayAdvance(in *instance, rec *JournalRecord) error {
	r.applyEvents(in, rec.Events)
	in.state = rec.State
	in.current = rec.Current
	in.completedAt = rec.CompletedAt
	for i := range rec.Executions {
		ex := rec.Executions[i]
		if _, dup := in.executions[ex.InvocationID]; dup {
			return fmt.Errorf("runtime: replay duplicate execution %s on %s", ex.InvocationID, in.id)
		}
		r.registerExecution(in, &ex)
	}
	return nil
}

// registerExecution installs one execution on in — ordered map entry,
// the failed/pending counters, the callback-routing index (sweeping the
// stripe's expired entries on the way), the invocation id counter, and
// retirement scheduling for terminal ones (on replay the GC grace
// window restarts at replay time; a no-op when retention is disabled).
// Shared by the advance applier and snapshot replay so the two can
// never drift. Callers hold in.mu (or own the instance exclusively).
func (r *Runtime) registerExecution(in *instance, ex *ActionExecution) {
	in.executions[ex.InvocationID] = ex
	in.execOrder = append(in.execOrder, ex.InvocationID)
	switch {
	case ex.Terminal && ex.LastStatus == actionlib.StatusFailed:
		in.failedSteps++
	case !ex.Terminal && ex.DispatchErr == "":
		in.pendingInvs++
	}
	ish := r.invShardFor(ex.InvocationID)
	ish.mu.Lock()
	ish.m[ex.InvocationID] = in
	if r.cfg.InvocationRetention > 0 {
		r.sweepInvShardLocked(ish, r.clock.Now())
	}
	ish.mu.Unlock()
	bumpAtLeast(&r.nextInv, invSeq(ex.InvocationID))
	if ex.Terminal {
		r.invRetire(ex.InvocationID)
	}
}

func (r *Runtime) replayBind(in *instance, rec *JournalRecord) {
	if in.instBindings == nil {
		in.instBindings = make(map[string]map[string]string)
	}
	for uri, values := range rec.Bindings {
		vals := in.instBindings[uri]
		if vals == nil {
			vals = make(map[string]string, len(values))
			in.instBindings[uri] = vals
		}
		for k, v := range values {
			vals[k] = v
		}
	}
}

func (r *Runtime) replayReport(in *instance, rec *JournalRecord) error {
	exec, ok := in.executions[rec.Invocation]
	if !ok {
		return fmt.Errorf("runtime: replay report for unknown invocation %s on %s", rec.Invocation, in.id)
	}
	exec.LastStatus = rec.Status
	exec.LastDetail = rec.Detail
	exec.Updates++
	if rec.Terminal && !exec.Terminal {
		exec.Terminal = true
		in.pendingInvs--
		if rec.Status == actionlib.StatusFailed {
			in.failedSteps++
		}
	}
	r.applyEvents(in, rec.Events)
	if rec.Terminal {
		r.invRetire(rec.Invocation)
	}
	return nil
}

func (r *Runtime) replayDispatchFail(in *instance, rec *JournalRecord) error {
	exec, ok := in.executions[rec.Invocation]
	if !ok {
		return fmt.Errorf("runtime: replay dispatch failure for unknown invocation %s on %s", rec.Invocation, in.id)
	}
	if !exec.Terminal {
		exec.DispatchErr = rec.Detail
		exec.Terminal = true
		exec.LastStatus = actionlib.StatusFailed
		exec.LastDetail = rec.Detail
		in.pendingInvs--
		in.failedSteps++
	}
	r.applyEvents(in, rec.Events)
	r.invRetire(rec.Invocation)
	return nil
}

func (r *Runtime) replayPropose(in *instance, rec *JournalRecord) {
	in.pending = &ChangeProposal{
		ProposedBy: rec.Proposer,
		ProposedAt: rec.ProposedAt,
		Note:       rec.Note,
		NewModel:   rec.Model,
		Summary:    rec.DiffSummary,
	}
	r.applyEvents(in, rec.Events)
}

func (r *Runtime) replayAccept(in *instance, rec *JournalRecord) error {
	if in.pending == nil {
		return fmt.Errorf("%w: replayed accept on %s", ErrNoPending, in.id)
	}
	in.model = in.pending.NewModel
	in.mcache = buildModelCache(in.model)
	in.pending = nil
	in.state = rec.State
	in.current = rec.Current
	in.completedAt = rec.CompletedAt
	r.applyEvents(in, rec.Events)
	return nil
}

func (r *Runtime) replaySwitch(in *instance, rec *JournalRecord) error {
	if rec.Model == nil {
		return fmt.Errorf("runtime: switch record for %s missing model", in.id)
	}
	in.model = rec.Model
	in.mcache = buildModelCache(in.model)
	in.pending = nil
	in.state = rec.State
	in.current = rec.Current
	in.completedAt = rec.CompletedAt
	if rec.ModelURI != "" && rec.ModelURI != in.modelURI {
		r.byModel.remove(in.modelURI, in)
		in.modelURI = rec.ModelURI
		r.byModel.add(in.modelURI, in)
	}
	r.applyEvents(in, rec.Events)
	return nil
}

// bumpAtLeast raises a monotonic id counter to at least n, so ids
// allocated after recovery never collide with replayed ones.
func bumpAtLeast(c *atomic.Int64, n int64) {
	for {
		cur := c.Load()
		if cur >= n || c.CompareAndSwap(cur, n) {
			return
		}
	}
}

// invSeq parses the numeric suffix of an "inv-NNNNNN" invocation id; 0
// when the id has a foreign shape.
func invSeq(id string) int64 {
	s, ok := strings.CutPrefix(id, "inv-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// RecoveryStats summarizes a completed replay.
type RecoveryStats struct {
	// Records is the number of journal records applied.
	Records int64 `json:"records"`
	// Instances is the recovered instance population.
	Instances int `json:"instances"`
	// Events counts every replayed event (including any immediately
	// ring-truncated back out of memory).
	Events int64 `json:"events"`
	// Executions counts recovered action executions.
	Executions int64 `json:"executions"`
	// Elapsed is the wall-clock replay time in nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// FinishRecovery closes a replay: it derives the recovery stats served
// by RuntimeStats and returns them. Call it exactly once, after the
// last ApplyJournal and before the runtime serves live traffic; a
// runtime that never replayed reports zeros.
func (r *Runtime) FinishRecovery() RecoveryStats {
	st := RecoveryStats{
		Records: r.recoveredRecords.Load(),
		Events:  r.totalEvents.Load(),
	}
	for _, sh := range r.shards {
		sh.mu.RLock()
		st.Instances += len(sh.instances)
		for _, in := range sh.instances {
			in.mu.Lock()
			st.Executions += int64(len(in.execOrder))
			in.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	if !r.recoveryStart.IsZero() {
		st.Elapsed = time.Since(r.recoveryStart)
	}
	r.recovery = st
	return st
}
