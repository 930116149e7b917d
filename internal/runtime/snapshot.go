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
	"fmt"
	"slices"
	"sort"
	"time"
)

// SnapshotWriter receives one fold's snapshot (store.Instances hands
// its folds' writers to EmitSnapshots).
type SnapshotWriter interface {
	// Head writes a shared record — a RecModel body, keyed by digest —
	// at the head of the snapshot, ahead of every Emit.
	Head(key string, data []byte) error
	// Emit writes one instance's snapshot record; the caller holds the
	// instance's lock.
	Emit(id string, data []byte) error
}

// EmitSnapshots writes one fold's snapshot through w: first, at its
// head, the body of every model version the fold must keep resolvable
// (the package doc's invariant), then one RecSnapshot record per live
// instance, in creation order, each produced and emitted while that
// instance's mutation lock is held — the contract the store's
// fold-boundary sampling relies on: at emit time the image reflects
// exactly the records journaled for that instance so far, and no new
// one can be journaled until Emit returns. A snapshot record names its
// model versions by digest, and carries a body only when the head
// lacks it (the instance moved to a version after the head was
// written). w must not call back into the Runtime. Safe to run while
// live traffic mutates other instances; a non-nil error from w aborts
// the walk.
//
// Folding is also what moves ring-truncated history to disk, in two
// phases: before any image is emitted, every instance's spill is
// written once into one history archive (Config.History) and the
// images reference it. The returned installed hook, which the store
// runs only after the snapshot installs, trims the archived events
// from the spills. A fold that fails before installing leaves memory
// untouched, and its archive becomes an orphan the next open removes.
func (r *Runtime) EmitSnapshots(w SnapshotWriter) (installed func(), err error) {
	// Barrier: wait out any Instantiate that has journaled its record
	// but not yet published the instance — otherwise the walk below
	// could miss an instance whose record the fold is about to delete.
	r.instPub.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	r.instPub.Unlock()
	archived, err := r.archiveSpills()
	if err != nil {
		return nil, err
	}
	fold, head := r.models.beginFold()
	for _, e := range head {
		rec := &JournalRecord{Op: RecModel, Instance: e.digest, ModelDigest: e.digest, Model: e.model}
		data, err := rec.Encode()
		if err == nil {
			err = w.Head(e.digest, data)
		}
		if err != nil {
			return nil, fmt.Errorf("runtime: snapshot head %s: %w", e.digest, err)
		}
	}
	// Walk in creation order, so the snapshot file replays as nearly
	// in-order appends to the population and URI indexes.
	for refs := range r.pop.walk(0, walkBatch) {
		for _, in := range refs {
			in.mu.Lock()
			data, err := snapshotRecord(in, archived[in], fold).Encode()
			if err == nil {
				err = w.Emit(in.id, data)
			}
			in.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("runtime: snapshot %s: %w", in.id, err)
			}
		}
	}
	if len(archived) == 0 {
		return nil, nil
	}
	return func() {
		for in, b := range archived {
			in.mu.Lock()
			in.spill = slices.Clone(in.spill[b.n:])
			in.archived = append(in.archived, b.ref)
			in.mu.Unlock()
			r.spilledEvents.Add(-int64(b.n))
		}
	}, nil
}

// spillBatch is the head of one instance's spill that a fold archived:
// its length and where it landed.
type spillBatch struct {
	n   int
	ref HistoryRef
}

// archiveSpills writes every non-empty spill as one batch of a single
// history archive and reports what each batch covers; nil when no
// History is wired or nothing was spilled. Spills only grow at the
// tail until a fold's installed hook trims them, and folds are
// serialized, so the head each batch captured stays in place.
func (r *Runtime) archiveSpills() (map[*instance]spillBatch, error) {
	if r.cfg.History == nil || r.spilledEvents.Load() == 0 {
		return nil, nil
	}
	out := make(map[*instance]spillBatch)
	var order []*instance // creation order, the archive's batch order
	var data [][]byte
	for refs := range r.pop.walk(0, walkBatch) {
		for _, in := range refs {
			in.mu.Lock()
			if n := len(in.spill); n > 0 {
				order = append(order, in)
				data = append(data, encodeEvents(in.spill))
				out[in] = spillBatch{n: n, ref: HistoryRef{From: in.spill[0].Seq, To: in.spill[n-1].Seq}}
			}
			in.mu.Unlock()
		}
	}
	if len(order) == 0 {
		return nil, nil
	}
	num, err := r.cfg.History.ArchiveHistory(func(yield func(string, []byte) bool) {
		for i, in := range order {
			if !yield(in.id, data[i]) {
				return
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("runtime: archive history: %w", err)
	}
	for in, b := range out {
		b.ref.Archive = num
		out[in] = b
	}
	return out, nil
}

// snapshotRecord builds the full replayable image for the given fold;
// callers hold in.mu. archived is the head of the spill this fold
// archived (zero when none): the image references its batch, and
// carries only the rest of the spill inline, in front of the ring.
// Model versions are named by digest, with the body inline only when
// the fold's head lacks it. Maps and slices are copied so the encoded
// record never races a later mutation (encoding happens under the lock
// anyway; the copies keep the record self-contained should that ever
// change).
func snapshotRecord(in *instance, archived spillBatch, fold uint64) *JournalRecord {
	rec := &JournalRecord{
		Op:           RecSnapshot,
		Instance:     in.id,
		Seq:          in.seq,
		ModelDigest:  in.model.digest,
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
		Archives:     in.archived,
		Deviations:   in.deviations,
		ResidPhase:   in.residPhase,
		ResidSince:   in.residSince,
		PhaseEntered: in.phaseEntered,
	}
	if in.model.head.Load() != fold {
		rec.Model = in.model.model
	}
	if in.modelURI != in.model.model.URI { // provenance kept across an accept
		rec.ModelURI = in.modelURI
	}
	if p := in.pending; p != nil {
		proposal := p.ChangeProposal
		rec.Pending, rec.PendingDigest = &proposal, p.entry.digest
		if p.entry.head.Load() == fold {
			proposal.NewModel = nil
		}
	}
	if archived.n > 0 {
		rec.Archives = append(slices.Clip(in.archived), archived.ref)
	}
	if spill := in.spill[archived.n:]; len(spill) > 0 {
		rec.Events = append(slices.Clone(spill), in.events...)
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
// fields, archive refs, spill and ring verbatim, counters restored
// rather than re-derived (the ring may no longer contain the events
// that built them), executions re-registered in the callback index,
// id counters bumped. The unfolded tail records for this instance
// replay on top afterwards through the normal appliers.
func (r *Runtime) replaySnapshot(rec *JournalRecord) error {
	if rec.entry == nil || rec.Resource == nil {
		return fmt.Errorf("runtime: snapshot record for %s missing model or resource", rec.Instance)
	}
	modelURI := rec.ModelURI
	if modelURI == "" {
		modelURI = rec.entry.model.URI
	}
	bindings := rec.Bindings
	if bindings == nil {
		bindings = make(map[string]map[string]string)
	}
	in := &instance{
		id:             rec.Instance,
		seq:            rec.Seq,
		model:          rec.entry,
		modelURI:       modelURI,
		res:            *rec.Resource,
		owner:          rec.Owner,
		state:          rec.State,
		current:        rec.Current,
		createdAt:      rec.CreatedAt,
		completedAt:    rec.CompletedAt,
		instBindings:   bindings,
		unresolved:     rec.Unresolved,
		eventSeq:       rec.EventSeq,
		truncatedEvs:   rec.TruncatedEvs,
		archived:       rec.Archives,
		deviations:     rec.Deviations,
		executions:     make(map[string]*ActionExecution, len(rec.Executions)),
		phaseEntered:   rec.PhaseEntered,
		phaseResidence: rec.PhaseResidence,
		residPhase:     rec.ResidPhase,
		residSince:     rec.ResidSince,
	}
	if in.state == "" {
		in.state = StateActive
	}
	if rec.Pending != nil {
		in.pending = &pendingChange{ChangeProposal: *rec.Pending, entry: rec.pendingEntry}
		in.pending.NewModel = rec.pendingEntry.model
	}
	if in.phaseEntered != nil && in.phaseResidence == nil {
		in.phaseResidence = make(map[string]time.Duration)
	}
	// Events is the unarchived spill, then the ring.
	split := sort.Search(len(rec.Events), func(i int) bool { return rec.Events[i].Seq > rec.TruncatedEvs })
	if split > 0 {
		in.spill = rec.Events[:split:split]
	}
	in.events = rec.Events[split:]
	r.totalEvents.Add(int64(in.eventSeq))
	r.truncatedEvents.Add(int64(in.truncatedEvs))
	r.spilledEvents.Add(int64(split))
	// Re-apply ring truncation under the *current* config: a restart
	// with a smaller MaxEventsInMemory trims the restored ring the same
	// way the live path would have.
	r.truncateRing(in)

	for i := range rec.Executions {
		ex := rec.Executions[i]
		r.registerExecution(in, &ex)
	}

	return r.publish(in)
}
