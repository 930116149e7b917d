package runtime

// Snapshot folding support: the RecSnapshot record captures one
// instance's full replayable image — everything ApplyJournal rebuilds
// by streaming the instance's mutation records, in one record — so the
// instance journal's sealed segments can be folded away and restart
// replay stays O(live instances + unfolded tail) instead of O(every
// record ever written). EmitSnapshots produces the images for the
// store's folder (store.Instances.SetSnapshotSource); replaySnapshot
// applies one during recovery, after which the instance's unfolded
// tail records replay on top through the normal appliers.

import (
	"encoding/json"
	"fmt"
	"time"
)

// EmitSnapshots calls emit once per live instance, in creation order,
// with the instance's id and its encoded RecSnapshot record, each
// produced and emitted while that instance's mutation lock is held —
// the contract the store's fold-boundary sampling relies on: at emit
// time the image
// reflects exactly the records journaled for that instance so far, and
// no new one can be journaled until emit returns. emit must not call
// back into the Runtime. Safe to run while live traffic mutates other
// instances; a non-nil error from emit aborts the walk.
func (r *Runtime) EmitSnapshots(emit func(id string, data []byte) error) error {
	// Barrier: wait out any Instantiate that has journaled its record
	// but not yet published the instance — otherwise the walk below
	// could miss an instance whose record the fold is about to delete.
	r.instPub.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	r.instPub.Unlock()
	// Walk in creation order, so the snapshot file replays as nearly
	// in-order appends to the population and URI indexes.
	var err error
	r.forEachRef(0, func(in *instance) bool {
		in.mu.Lock()
		data, e := json.Marshal(snapshotRecord(in))
		if e == nil {
			e = emit(in.id, data)
		}
		in.mu.Unlock()
		if e != nil {
			err = fmt.Errorf("runtime: snapshot %s: %w", in.id, e)
			return false
		}
		return true
	})
	return err
}

// snapshotRecord builds the full replayable image; callers hold in.mu.
// Maps and slices are copied so the encoded record never races a later
// mutation (encoding happens under the lock anyway; the copies keep
// the record self-contained should that ever change).
func snapshotRecord(in *instance) *JournalRecord {
	rec := &JournalRecord{
		Op:           RecSnapshot,
		Instance:     in.id,
		Seq:          in.seq,
		Model:        in.model,
		ModelURI:     in.modelURI,
		Resource:     &in.res,
		Owner:        in.owner,
		CreatedAt:    in.createdAt,
		Unresolved:   in.unresolved,
		Bindings:     in.instBindings,
		State:        in.state,
		Current:      in.current,
		CompletedAt:  in.completedAt,
		Events:       in.events,
		EventSeq:     in.eventSeq,
		TruncatedEvs: in.truncatedEvs,
		Deviations:   in.deviations,
		Pending:      in.pending,
		ResidPhase:   in.residPhase,
		ResidSince:   in.residSince,
		PhaseEntered: in.phaseEntered,
	}
	if in.phaseResidence != nil {
		rec.PhaseResidence = make(map[string]time.Duration, len(in.phaseResidence))
		for p, d := range in.phaseResidence {
			rec.PhaseResidence[p] = d
		}
	}
	for _, id := range in.execOrder {
		rec.Executions = append(rec.Executions, *in.executions[id])
	}
	return rec
}

// replaySnapshot reconstructs an instance from its folded image: state
// fields and the retained event ring verbatim, counters restored
// rather than re-derived (the ring may no longer contain the events
// that built them), executions re-registered in the callback index,
// id counters bumped. The unfolded tail records for this instance
// replay on top afterwards through the normal appliers.
func (r *Runtime) replaySnapshot(rec *JournalRecord) error {
	if rec.Model == nil || rec.Resource == nil {
		return fmt.Errorf("runtime: snapshot record for %s missing model or resource", rec.Instance)
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
		id:             rec.Instance,
		seq:            rec.Seq,
		model:          rec.Model, // decoded copy: the record owns it exclusively
		mcache:         buildModelCache(rec.Model),
		modelURI:       modelURI,
		res:            *rec.Resource,
		owner:          rec.Owner,
		state:          rec.State,
		current:        rec.Current,
		createdAt:      rec.CreatedAt,
		completedAt:    rec.CompletedAt,
		instBindings:   bindings,
		unresolved:     rec.Unresolved,
		events:         rec.Events,
		eventSeq:       rec.EventSeq,
		truncatedEvs:   rec.TruncatedEvs,
		deviations:     rec.Deviations,
		pending:        rec.Pending,
		executions:     make(map[string]*ActionExecution, len(rec.Executions)),
		phaseEntered:   rec.PhaseEntered,
		phaseResidence: rec.PhaseResidence,
		residPhase:     rec.ResidPhase,
		residSince:     rec.ResidSince,
	}
	if in.state == "" {
		in.state = StateActive
	}
	if in.phaseEntered != nil && in.phaseResidence == nil {
		in.phaseResidence = make(map[string]time.Duration)
	}
	// Re-apply ring truncation under the *current* config: a restart
	// with a smaller MaxEventsInMemory trims the restored ring the same
	// way the live path would have.
	if max := r.cfg.MaxEventsInMemory; max > 0 && len(in.events) > max+max/4 {
		drop := len(in.events) - max
		kept := make([]Event, max)
		copy(kept, in.events[drop:])
		in.events = kept
		in.truncatedEvs += drop
	}
	r.totalEvents.Add(int64(in.eventSeq))
	r.truncatedEvents.Add(int64(in.truncatedEvs))

	for i := range rec.Executions {
		ex := rec.Executions[i]
		r.registerExecution(in, &ex)
	}

	return r.publish(in)
}
