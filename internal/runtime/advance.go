package runtime

import (
	"context"
	"fmt"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
)

// AdvanceOptions carries the optional inputs of a token move.
type AdvanceOptions struct {
	// Annotation explains the move; the paper singles annotations out as
	// the way owners justify not following the standard flow.
	Annotation string
	// CallBindings supplies call-stage parameter values per action URI
	// for the actions of the phase being entered.
	CallBindings map[string]map[string]string
}

// MoveResult is the copy-free result mode of the mutating verbs
// (AdvanceSummary, AcceptChangeSummary, SwitchModelSummary): the
// post-move summary plus only the events the call itself appended — no
// history deep copy, no execution slice, no model copy. EventsSince
// semantics: Events are contiguous and end at Summary.Events, so the
// first has Seq = Summary.Events - len(Events) + 1.
type MoveResult struct {
	Summary Summary `json:"summary"`
	Events  []Event `json:"events"`
}

// Advance moves the instance token to phase toPhase on behalf of actor
// and returns a full history snapshot. The HTTP tier prefers
// AdvanceSummary, which skips the history deep copy.
//
// Semantics follow §IV.B exactly:
//   - If the move follows a suggested transition from the token's
//     position, token owners and instance owners may perform it.
//   - Any other move is a *deviation*: legal (the model is descriptive,
//     "the lifecycle owner can at any time move the token to any
//     phase"), but reserved to instance owners and flagged in history.
//   - Entering a phase triggers its actions, all dispatched in parallel
//     with no ordering or transactional guarantee.
//   - Entering a final phase completes the instance; moving out of a
//     final phase re-opens it (recorded as a deviation + reopened).
//
// Only the moved instance's lock is held: concurrent Advances on
// different instances proceed fully in parallel.
func (r *Runtime) Advance(instID, toPhase, actor string, opts AdvanceOptions) (Snapshot, error) {
	var snap Snapshot
	err := r.advance(instID, toPhase, actor, opts, func(in *instance, _ []Event) {
		snap = in.snapshot()
	})
	return snap, err
}

// AdvanceSummary is Advance in the copy-free result mode: the post-move
// summary plus only the events this call appended.
func (r *Runtime) AdvanceSummary(instID, toPhase, actor string, opts AdvanceOptions) (MoveResult, error) {
	var res MoveResult
	err := r.advance(instID, toPhase, actor, opts, func(in *instance, appended []Event) {
		res = MoveResult{Summary: in.summary(), Events: appended}
	})
	return res, err
}

// advance is the shared token-move core. project runs under the
// instance lock after all mutation, with the events this call appended
// (in seq order, already value copies safe to retain).
func (r *Runtime) advance(instID, toPhase, actor string, opts AdvanceOptions, project func(*instance, []Event)) error {
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	in.mu.Lock()
	target, ok := in.model.Phase(toPhase)
	if !ok {
		in.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPhase, toPhase)
	}

	from := in.current
	fromNode := from
	if fromNode == "" {
		fromNode = core.Begin
	}
	suggested := in.model.Suggests(fromNode, toPhase)
	if suggested {
		if !r.policy.CanFollow(actor, instID, toPhase) {
			in.mu.Unlock()
			return fmt.Errorf("%w: %s may not follow %s -> %s on %s",
				ErrForbidden, actor, fromNode, toPhase, instID)
		}
	} else if !r.policy.CanDrive(actor, instID) {
		in.mu.Unlock()
		return fmt.Errorf("%w: %s may not deviate to %s on %s (instance owner required)",
			ErrForbidden, actor, toPhase, instID)
	}

	// Validate call-stage bindings for the target phase's actions before
	// mutating anything.
	for _, call := range target.Actions {
		vals := opts.CallBindings[call.URI]
		if len(vals) == 0 {
			continue
		}
		if err := actionlib.CheckStageBindings(r.specFor(call.URI), call, vals, actionlib.StageCall); err != nil {
			in.mu.Unlock()
			return err
		}
	}

	// appended collects every event this call records, in seq order —
	// both the observer feed and the MoveResult projection.
	var appended []Event

	if in.state == StateCompleted {
		in.state = StateActive
		appended = append(appended, r.record(in, Event{Kind: EventReopened, Actor: actor, Phase: toPhase,
			Detail: "token moved out of a final phase"}))
	}

	// The deviation counter is maintained by the shared event applier
	// (applyRecorded) off the event's Deviation flag, so live mutation
	// and journal replay count identically.
	in.current = toPhase
	appended = append(appended, r.record(in, Event{
		Kind: EventPhaseEntered, Actor: actor,
		Phase: toPhase, FromPhase: from,
		Detail: opts.Annotation, Deviation: !suggested,
	}))

	var dispatches []dispatchItem
	if target.Final {
		in.state = StateCompleted
		in.completedAt = r.clock.Now()
		appended = append(appended, r.record(in, Event{Kind: EventCompleted, Actor: actor, Phase: toPhase}))
	} else {
		dispatches = r.prepareDispatches(in, target, opts.CallBindings)
		for _, d := range dispatches {
			appended = append(appended, d.startEv)
		}
	}

	rec := &JournalRecord{Op: RecAdvance, Instance: instID, To: toPhase, Events: appended}
	rec.mirrorState(in)
	for _, d := range dispatches {
		rec.Executions = append(rec.Executions, *in.executions[d.startEv.Invocation])
	}
	if err := r.journalLocked(in, rec); err != nil {
		// Fail-forward: the in-memory move stands, but the un-journaled
		// mutation is not observed and its actions are not dispatched.
		in.mu.Unlock()
		return err
	}
	project(in, appended)
	in.mu.Unlock()

	for _, ev := range appended {
		r.observe(instID, ev)
	}
	r.launch(instID, dispatches)
	return nil
}

// dispatchItem pairs a ready invocation with its start event; failed
// preparations carry err instead.
type dispatchItem struct {
	inv     actionlib.Invocation
	startEv Event
	prepErr error
}

// prepareDispatches resolves implementations and parameters for every
// action of the entered phase. Callers hold in.mu (the invocation
// index stripe is locked inside, per the package lock order).
// Preparation failures (no implementation, binding errors) become
// terminal failed executions immediately; successful preparations are
// launched by launch().
func (r *Runtime) prepareDispatches(in *instance, phase *core.Phase, callBindings map[string]map[string]string) []dispatchItem {
	var items []dispatchItem
	for _, call := range phase.Actions {
		invID := fmt.Sprintf("inv-%06d", r.nextInv.Add(1))
		exec := &ActionExecution{
			InvocationID: invID,
			ActionURI:    call.URI,
			ActionName:   call.Name,
			Phase:        phase.ID,
			StartedAt:    r.clock.Now(),
		}
		in.executions[invID] = exec
		in.execOrder = append(in.execOrder, invID)
		ish := r.invShardFor(invID)
		ish.mu.Lock()
		ish.m[invID] = in
		if r.cfg.InvocationRetention > 0 {
			r.sweepInvShardLocked(ish, r.clock.Now())
		}
		ish.mu.Unlock()

		impl, err := r.cfg.Registry.Resolve(call.URI, in.res.Type)
		var params map[string]string
		if err == nil {
			params, err = actionlib.ResolveParams(r.specFor(call.URI), call,
				in.instBindings[call.URI], callBindings[call.URI])
		}
		if err == nil && r.cfg.Invoker == nil {
			err = fmt.Errorf("runtime: no invoker configured")
		}
		if err != nil {
			exec.DispatchErr = err.Error()
			exec.Terminal = true
			exec.LastStatus = actionlib.StatusFailed
			exec.LastDetail = err.Error()
			in.failedSteps++
			r.invRetire(invID) // terminal from birth: GC clock starts now
			ev := r.record(in, Event{Kind: EventActionStatus, Phase: phase.ID,
				ActionURI: call.URI, Invocation: invID,
				Status: actionlib.StatusFailed, Detail: err.Error()})
			items = append(items, dispatchItem{startEv: ev, prepErr: err})
			continue
		}
		in.pendingInvs++

		callback := r.cfg.CallbackBase
		if callback == "" {
			callback = "callback:/" // local scheme for embedded use
		}
		inv := actionlib.Invocation{
			ID:           invID,
			TypeURI:      call.URI,
			ActionName:   call.Name,
			Endpoint:     impl.Endpoint,
			Protocol:     impl.Protocol,
			ResourceURI:  in.res.URI,
			ResourceType: in.res.Type,
			CallbackURI:  callback + "/" + invID,
			Params:       params,
			Credentials:  in.res.Credentials,
		}
		ev := r.record(in, Event{Kind: EventActionStarted, Phase: phase.ID,
			ActionURI: call.URI, Invocation: invID, Detail: call.Name})
		items = append(items, dispatchItem{inv: inv, startEv: ev})
	}
	return items
}

// launch hands prepared invocations to the invoker — in parallel
// goroutines by default ("all actions associated to a phase are executed
// in parallel and anyway in a non-deterministic order", §IV.A), inline
// when Config.SyncActions is set.
func (r *Runtime) launch(instID string, items []dispatchItem) {
	for _, d := range items {
		if d.prepErr != nil {
			continue
		}
		inv := d.inv
		if r.cfg.SyncActions {
			if err := r.invoke(inv); err != nil {
				r.failDispatch(instID, inv.ID, err)
			}
			continue
		}
		r.dispatch.Add(1)
		go func() {
			defer r.dispatch.Done()
			if err := r.invoke(inv); err != nil {
				r.failDispatch(instID, inv.ID, err)
			}
		}()
	}
}

// invoke runs one dispatch under the configured end-to-end deadline.
func (r *Runtime) invoke(inv actionlib.Invocation) error {
	ctx := context.Background()
	if r.cfg.DispatchTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.DispatchTimeout)
		defer cancel()
	}
	return r.cfg.Invoker.Invoke(ctx, inv)
}

// failDispatch marks an invocation failed when the invoker itself
// errored (endpoint unreachable, etc.).
func (r *Runtime) failDispatch(instID, invID string, err error) {
	in, ok := r.lookup(instID)
	if !ok {
		return
	}
	in.mu.Lock()
	exec, ok := in.executions[invID]
	if !ok || exec.Terminal {
		in.mu.Unlock()
		return
	}
	exec.DispatchErr = err.Error()
	exec.Terminal = true
	exec.LastStatus = actionlib.StatusFailed
	exec.LastDetail = err.Error()
	in.pendingInvs--
	in.failedSteps++
	ev := r.record(in, Event{Kind: EventActionStatus, Phase: exec.Phase,
		ActionURI: exec.ActionURI, Invocation: invID,
		Status: actionlib.StatusFailed, Detail: err.Error()})
	jerr := r.journalLocked(in, &JournalRecord{
		Op: RecDispatchFail, Instance: instID, Invocation: invID,
		Detail: err.Error(), Events: []Event{ev},
	})
	in.mu.Unlock()
	// The execution is terminal in memory either way, so its index
	// entry must start its GC grace window even when the journal append
	// failed (fail-forward suppresses only observer delivery).
	r.invRetire(invID)
	if jerr != nil {
		return
	}
	r.observe(instID, ev)
}

// Report delivers a status message from an action implementation — the
// callback URI path of §IV.C. Status strings are free-form except the
// reserved terminal pair; they are recorded, never interpreted.
// Updates for already-terminal executions are ignored (late duplicate
// callbacks are expected in a distributed setting). Routing goes
// through the sharded invocation index straight to the owning
// instance: no scan, no other instance's lock.
func (r *Runtime) Report(up actionlib.StatusUpdate) error {
	ish := r.invShardFor(up.InvocationID)
	ish.mu.RLock()
	in, ok := ish.m[up.InvocationID]
	ish.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: invocation %s", ErrNotFound, up.InvocationID)
	}
	in.mu.Lock()
	exec := in.executions[up.InvocationID]
	if exec.Terminal {
		in.mu.Unlock()
		return nil
	}
	exec.LastStatus = up.Message
	exec.LastDetail = up.Detail
	exec.Updates++
	if up.Terminal() {
		exec.Terminal = true
		in.pendingInvs--
		if up.Message == actionlib.StatusFailed {
			in.failedSteps++
		}
	}
	ev := r.record(in, Event{Kind: EventActionStatus, Phase: exec.Phase,
		ActionURI: exec.ActionURI, Invocation: up.InvocationID,
		Status: up.Message, Detail: up.Detail})
	instID := in.id
	jerr := r.journalLocked(in, &JournalRecord{
		Op: RecReport, Instance: instID, Invocation: up.InvocationID,
		Status: up.Message, Detail: up.Detail, Terminal: up.Terminal(),
		Events: []Event{ev},
	})
	in.mu.Unlock()
	if up.Terminal() {
		// Terminal in memory even on a journal error: the index entry's
		// GC grace window starts now regardless (fail-forward suppresses
		// only observer delivery).
		r.invRetire(up.InvocationID)
	}
	if jerr != nil {
		return jerr
	}
	r.observe(instID, ev)
	return nil
}
