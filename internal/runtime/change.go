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
	rec := &JournalRecord{
		Op: RecPropose, Instance: instID,
		Proposer: proposer, ProposedAt: r.clock.Now(), Note: note,
		Model: newModel.Clone(), DiffSummary: core.DiffModels(in.model, newModel).String(),
	}
	detail := rec.DiffSummary
	if in.pending != nil {
		detail += " (replaces an undecided proposal)"
	}
	rec.Events = r.stamp(in, nil, Event{Kind: EventChangeProposed, Actor: proposer, Detail: detail, Phase: in.current})
	err := r.commitLocked(in, rec)
	in.mu.Unlock()
	if err != nil {
		return err
	}
	r.observe(instID, rec.Events[0])
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
	if in.pending == nil {
		in.mu.Unlock()
		return fmt.Errorf("%w on %s", ErrNoPending, instID)
	}
	rec, err := r.migrationRecord(in, RecAccept, actor, landing, in.pending.NewModel, in.pending.Summary)
	if err == nil {
		err = r.commitLocked(in, rec)
	}
	if err != nil {
		in.mu.Unlock()
		return err
	}
	project(in, rec.Events)
	in.mu.Unlock()
	for _, ev := range rec.Events {
		r.observe(instID, ev)
	}
	return nil
}

// migrationRecord builds the record of a migration onto newModel — the
// shared core of AcceptChange and SwitchModel: it checks the landing
// phase, stamps the change-applied event and, when the landing changes
// completion, a completed or reopened one after it (so history seq
// order matches observer order and MoveResult.Events stays contiguous),
// and mirrors the post-migration token state. Nothing is mutated;
// callers hold in.mu.
func (r *Runtime) migrationRecord(in *instance, op RecordOp, actor, landing string, newModel *core.Model, summary string) (*JournalRecord, error) {
	target := landing
	if target == "" {
		target = in.current
	}
	isFinal := false
	if target != "" {
		p, ok := newModel.Phase(target)
		if !ok {
			return nil, fmt.Errorf("%w: %q does not exist in the proposed model (current phase was removed — choose a landing phase)",
				ErrUnknownPhase, target)
		}
		isFinal = p.Final
	}

	detail := summary
	if landing != "" {
		detail += fmt.Sprintf("; landed on %q", landing)
	}
	rec := &JournalRecord{Op: op, Instance: in.id, Landing: landing,
		State: in.state, Current: target, CompletedAt: in.completedAt}
	rec.Events = r.stamp(in, nil, Event{Kind: EventChangeApplied, Actor: actor, Phase: target, Detail: detail})
	wasCompleted := in.state == StateCompleted
	switch {
	case isFinal && !wasCompleted:
		rec.State = StateCompleted
		rec.CompletedAt = r.clock.Now()
		rec.Events = r.stamp(in, rec.Events, Event{Kind: EventCompleted, Actor: actor, Phase: target,
			Detail: "completed by migration"})
	case !isFinal && wasCompleted:
		rec.State = StateActive
		rec.Events = r.stamp(in, rec.Events, Event{Kind: EventReopened, Actor: actor, Phase: target,
			Detail: "re-opened by migration"})
	}
	return rec, nil
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
	rec := &JournalRecord{Op: RecReject, Instance: instID,
		Events: r.stamp(in, nil, Event{Kind: EventChangeRejected, Actor: actor, Phase: in.current,
			Detail: in.pending.Summary + noteSuffix(note)})}
	err := r.commitLocked(in, rec)
	in.mu.Unlock()
	if err != nil {
		return err
	}
	r.observe(instID, rec.Events[0])
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
	model := newModel.Clone()
	in.mu.Lock()
	rec, err := r.migrationRecord(in, RecSwitch, actor, landing, model, core.DiffModels(in.model, newModel).String())
	if err == nil {
		rec.Proposer, rec.Model, rec.ModelURI = actor, model, model.URI
		err = r.commitLocked(in, rec)
	}
	if err != nil {
		in.mu.Unlock()
		return err
	}
	project(in, rec.Events)
	in.mu.Unlock()
	for _, ev := range rec.Events {
		r.observe(instID, ev)
	}
	return nil
}
