package runtime

import (
	"fmt"

	"github.com/liquidpub/gelee/internal/core"
)

// ProposeChange pushes a new model version to a running instance.
// Per §IV.B: "If designers change a lifecycle model, they can request to
// propagate the change to running lifecycles. Upon receiving the
// request, lifecycle owners can accept or reject the change."
//
// The proposal is attached to the instance; nothing changes until the
// owner decides. A second proposal replaces an undecided first one (the
// designer iterated), which is recorded in history.
func (r *Runtime) ProposeChange(instID, proposer string, newModel *core.Model, note string) error {
	if newModel == nil {
		return fmt.Errorf("runtime: nil model proposed")
	}
	if err := newModel.Validate(); err != nil {
		return err
	}
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	in.mu.Lock()
	diff := core.DiffModels(in.model, newModel)
	replaced := in.pending != nil
	in.pending = &ChangeProposal{
		ProposedBy: proposer,
		ProposedAt: r.clock.Now(),
		Note:       note,
		NewModel:   newModel.Clone(),
		Summary:    diff.String(),
	}
	detail := diff.String()
	if replaced {
		detail += " (replaces an undecided proposal)"
	}
	ev := r.record(in, Event{Kind: EventChangeProposed, Actor: proposer, Detail: detail, Phase: in.current})
	if err := r.journalLocked(in, &JournalRecord{
		Op: RecPropose, Instance: instID,
		Proposer: proposer, ProposedAt: in.pending.ProposedAt, Note: note,
		Model: in.pending.NewModel, DiffSummary: in.pending.Summary,
		Events: []Event{ev},
	}); err != nil {
		in.mu.Unlock()
		return err
	}
	in.mu.Unlock()
	r.observe(instID, ev)
	return nil
}

// AcceptChange applies the pending proposal. landing names the phase the
// instance should end up in within the modified model; it may be empty
// when the current phase still exists there ("they can state in which
// phase the lifecycle instance should end up in the modified model").
//
// Migration is state migration only: the token is placed, no actions
// fire, no transitions are evaluated. If the landing phase is final the
// instance completes; if the instance was completed and lands on a
// non-final phase it re-opens.
func (r *Runtime) AcceptChange(instID, actor, landing string) (Snapshot, error) {
	var snap Snapshot
	err := r.acceptChange(instID, actor, landing, func(in *instance, _ []Event) {
		snap = in.snapshot()
	})
	return snap, err
}

// AcceptChangeSummary is AcceptChange in the copy-free result mode: the
// post-migration summary plus only the events this call appended.
func (r *Runtime) AcceptChangeSummary(instID, actor, landing string) (MoveResult, error) {
	var res MoveResult
	err := r.acceptChange(instID, actor, landing, func(in *instance, appended []Event) {
		res = MoveResult{Summary: in.summary(), Events: appended}
	})
	return res, err
}

// acceptChange is the shared migration entry point; project runs under
// the instance lock after a successful apply, with the appended events.
func (r *Runtime) acceptChange(instID, actor, landing string, project func(*instance, []Event)) error {
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	if !r.policy.CanDrive(actor, instID) {
		return fmt.Errorf("%w: %s may not migrate %s", ErrForbidden, actor, instID)
	}
	in.mu.Lock()
	evs, err := r.applyPendingLocked(in, actor, landing)
	if err != nil {
		in.mu.Unlock()
		return err
	}
	rec := &JournalRecord{Op: RecAccept, Instance: instID, Landing: landing, Events: evs}
	rec.mirrorState(in)
	if err := r.journalLocked(in, rec); err != nil {
		in.mu.Unlock()
		return err
	}
	project(in, evs)
	in.mu.Unlock()
	for _, ev := range evs {
		r.observe(instID, ev)
	}
	return nil
}

// applyPendingLocked applies the instance's pending proposal — the
// shared migration core of AcceptChange and SwitchModel. Callers hold
// in.mu. On error nothing is mutated. The returned events are recorded
// in history; callers deliver them to the observer after unlocking, in
// order.
func (r *Runtime) applyPendingLocked(in *instance, actor, landing string) ([]Event, error) {
	if in.pending == nil {
		return nil, fmt.Errorf("%w on %s", ErrNoPending, in.id)
	}
	newModel := in.pending.NewModel
	target := landing
	if target == "" {
		target = in.current
	}
	if target != "" {
		if _, ok := newModel.Phase(target); !ok {
			return nil, fmt.Errorf("%w: %q does not exist in the proposed model (current phase was removed — choose a landing phase)",
				ErrUnknownPhase, target)
		}
	}

	summary := in.pending.Summary
	in.model = newModel.Clone()
	in.mcache = buildModelCache(in.model)
	in.current = target
	in.pending = nil

	detail := summary
	if landing != "" {
		detail += fmt.Sprintf("; landed on %q", landing)
	}
	evs := []Event{r.record(in, Event{Kind: EventChangeApplied, Actor: actor, Phase: in.current, Detail: detail})}

	// Recompute completion from the landing position. Recorded after the
	// change-applied event so history seq order matches observer order
	// (and MoveResult.Events stays contiguous in seq order).
	wasCompleted := in.state == StateCompleted
	isFinal := false
	if target != "" {
		if p, ok := in.model.Phase(target); ok && p.Final {
			isFinal = true
		}
	}
	switch {
	case isFinal && !wasCompleted:
		in.state = StateCompleted
		in.completedAt = r.clock.Now()
		evs = append(evs, r.record(in, Event{Kind: EventCompleted, Actor: actor, Phase: target,
			Detail: "completed by migration"}))
	case !isFinal && wasCompleted:
		in.state = StateActive
		evs = append(evs, r.record(in, Event{Kind: EventReopened, Actor: actor, Phase: target,
			Detail: "re-opened by migration"}))
	}
	return evs, nil
}

// RejectChange discards the pending proposal; the instance keeps its
// current model (owners "can accept or reject the change").
func (r *Runtime) RejectChange(instID, actor, note string) error {
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	if !r.policy.CanDrive(actor, instID) {
		return fmt.Errorf("%w: %s may not decide for %s", ErrForbidden, actor, instID)
	}
	in.mu.Lock()
	if in.pending == nil {
		in.mu.Unlock()
		return fmt.Errorf("%w on %s", ErrNoPending, instID)
	}
	summary := in.pending.Summary
	in.pending = nil
	ev := r.record(in, Event{Kind: EventChangeRejected, Actor: actor, Phase: in.current,
		Detail: summary + noteSuffix(note)})
	if err := r.journalLocked(in, &JournalRecord{Op: RecReject, Instance: instID, Events: []Event{ev}}); err != nil {
		in.mu.Unlock()
		return err
	}
	in.mu.Unlock()
	r.observe(instID, ev)
	return nil
}

func noteSuffix(note string) string {
	if note == "" {
		return ""
	}
	return "; " + note
}

// SwitchModel replaces the instance's model directly — the owner-side
// freedom of §IV.B ("owners can change the lifecycle followed by a
// resource, in other words they can change the model associated to a
// lifecycle instance"), without any designer proposal. landing follows
// the same rules as AcceptChange.
func (r *Runtime) SwitchModel(instID, actor string, newModel *core.Model, landing string) (Snapshot, error) {
	var snap Snapshot
	err := r.switchModel(instID, actor, newModel, landing, func(in *instance, _ []Event) {
		snap = in.snapshot()
	})
	return snap, err
}

// SwitchModelSummary is SwitchModel in the copy-free result mode: the
// post-switch summary plus only the events this call appended.
func (r *Runtime) SwitchModelSummary(instID, actor string, newModel *core.Model, landing string) (MoveResult, error) {
	var res MoveResult
	err := r.switchModel(instID, actor, newModel, landing, func(in *instance, appended []Event) {
		res = MoveResult{Summary: in.summary(), Events: appended}
	})
	return res, err
}

// switchModel is the shared owner-switch core; project runs under the
// instance lock after a successful apply, with the appended events.
func (r *Runtime) switchModel(instID, actor string, newModel *core.Model, landing string, project func(*instance, []Event)) error {
	if newModel == nil {
		return fmt.Errorf("runtime: nil model")
	}
	if err := newModel.Validate(); err != nil {
		return err
	}
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	if !r.policy.CanDrive(actor, instID) {
		return fmt.Errorf("%w: %s may not switch the model of %s", ErrForbidden, actor, instID)
	}
	// Install-and-apply happens in one critical section so a failed or
	// raced switch can neither leave its proposal dangling for a later
	// AcceptChange nor desynchronize provenance from the model index.
	in.mu.Lock()
	prevPending := in.pending
	in.pending = &ChangeProposal{
		ProposedBy: actor,
		ProposedAt: r.clock.Now(),
		NewModel:   newModel.Clone(),
		Summary:    core.DiffModels(in.model, newModel).String(),
		Note:       "owner-initiated model switch",
	}
	evs, err := r.applyPendingLocked(in, actor, landing)
	if err != nil {
		in.pending = prevPending
		in.mu.Unlock()
		return err
	}
	// The switch applied: move the provenance pointer and keep the
	// model index in step (index stripes are taken under the instance
	// lock, per the package lock order).
	if old := in.modelURI; old != newModel.URI {
		in.modelURI = newModel.URI
		r.byModel.remove(old, in)
		r.byModel.add(newModel.URI, in)
	}
	rec := &JournalRecord{
		Op: RecSwitch, Instance: instID, Landing: landing,
		Proposer: actor, Model: in.model, ModelURI: in.modelURI,
		Events: evs,
	}
	rec.mirrorState(in)
	if err := r.journalLocked(in, rec); err != nil {
		in.mu.Unlock()
		return err
	}
	project(in, evs)
	in.mu.Unlock()
	for _, ev := range evs {
		r.observe(instID, ev)
	}
	return nil
}
