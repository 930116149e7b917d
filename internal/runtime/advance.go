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
// instance lock once the move committed, with the events this call
// appended (in seq order, already value copies safe to retain).
func (r *Runtime) advance(instID, toPhase, actor string, opts AdvanceOptions, project func(*instance, []Event)) error {
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	in.mu.Lock()
	target, ok := in.model.model.Phase(toPhase)
	if !ok {
		in.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownPhase, toPhase)
	}

	from := in.current
	fromNode := from
	if fromNode == "" {
		fromNode = core.Begin
	}
	suggested := in.model.model.Suggests(fromNode, toPhase)
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

	// Build the move's record from the pre-move state; nothing is
	// mutated until it commits.
	rec := &JournalRecord{Op: RecAdvance, Instance: instID, To: toPhase,
		State: in.state, Current: toPhase, CompletedAt: in.completedAt}
	if in.state == StateCompleted {
		rec.State = StateActive
		rec.Events = r.stamp(in, rec.Events, Event{Kind: EventReopened, Actor: actor, Phase: toPhase,
			Detail: "token moved out of a final phase"})
	}
	rec.Events = r.stamp(in, rec.Events, Event{
		Kind: EventPhaseEntered, Actor: actor,
		Phase: toPhase, FromPhase: from,
		Detail: opts.Annotation, Deviation: !suggested,
	})
	var invs []actionlib.Invocation
	if target.Final {
		rec.State = StateCompleted
		rec.CompletedAt = r.clock.Now()
		rec.Events = r.stamp(in, rec.Events, Event{Kind: EventCompleted, Actor: actor, Phase: toPhase})
	} else {
		invs = r.prepareDispatches(in, target, opts.CallBindings, rec)
	}

	if err := r.commitLocked(in, rec); err != nil {
		in.mu.Unlock()
		return err
	}
	project(in, rec.Events)
	in.mu.Unlock()
	r.launch(instID, invs)
	return nil
}

// prepareDispatches resolves implementations and parameters for every
// action of the entered phase, adding each one's execution and event
// to the move's record and returning the invocations to launch once it
// commits. Callers hold in.mu; nothing is mutated but the invocation id
// counter. Preparation failures (no implementation, binding errors)
// become executions that are terminal and failed from birth.
func (r *Runtime) prepareDispatches(in *instance, phase *core.Phase, callBindings map[string]map[string]string, rec *JournalRecord) []actionlib.Invocation {
	var invs []actionlib.Invocation
	for _, call := range phase.Actions {
		invID := fmt.Sprintf("inv-%06d", r.nextInv.Add(1))
		exec := ActionExecution{
			InvocationID: invID,
			ActionURI:    call.URI,
			ActionName:   call.Name,
			Phase:        phase.ID,
			StartedAt:    r.clock.Now(),
		}

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
			rec.Executions = append(rec.Executions, exec)
			rec.Events = r.stamp(in, rec.Events, Event{Kind: EventActionStatus, Phase: phase.ID,
				ActionURI: call.URI, Invocation: invID,
				Status: actionlib.StatusFailed, Detail: err.Error()})
			continue
		}

		callback := r.cfg.CallbackBase
		if callback == "" {
			callback = "callback:/" // local scheme for embedded use
		}
		invs = append(invs, actionlib.Invocation{
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
		})
		rec.Executions = append(rec.Executions, exec)
		rec.Events = r.stamp(in, rec.Events, Event{Kind: EventActionStarted, Phase: phase.ID,
			ActionURI: call.URI, Invocation: invID, Detail: call.Name})
	}
	return invs
}

// launch hands prepared invocations to the invoker — in parallel
// goroutines by default ("all actions associated to a phase are executed
// in parallel and anyway in a non-deterministic order", §IV.A), inline
// when Config.SyncActions is set.
func (r *Runtime) launch(instID string, invs []actionlib.Invocation) {
	for _, inv := range invs {
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
	rec := &JournalRecord{Op: RecDispatchFail, Instance: instID, Invocation: invID, Detail: err.Error(),
		Events: r.stamp(in, nil, Event{Kind: EventActionStatus, Phase: exec.Phase,
			ActionURI: exec.ActionURI, Invocation: invID,
			Status: actionlib.StatusFailed, Detail: err.Error()})}
	_ = r.commitLocked(in, rec) // counted in the journal-error stat
	in.mu.Unlock()
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
	instID := in.id
	rec := &JournalRecord{
		Op: RecReport, Instance: instID, Invocation: up.InvocationID,
		Status: up.Message, Detail: up.Detail, Terminal: up.Terminal(),
		Events: r.stamp(in, nil, Event{Kind: EventActionStatus, Phase: exec.Phase,
			ActionURI: exec.ActionURI, Invocation: up.InvocationID,
			Status: up.Message, Detail: up.Detail}),
	}
	err := r.commitLocked(in, rec)
	in.mu.Unlock()
	return err
}
