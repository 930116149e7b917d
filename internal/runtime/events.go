package runtime

import (
	"encoding/json"
	"fmt"
	"iter"
)

// EventPage is a window of one instance's event history, served without
// copying anything beyond the requested page. It is what both timeline
// routes send: its JSON is the {items,total,next_after} page envelope,
// its events in the shape every response carries them.
type EventPage struct {
	// Events is the page, in ascending Seq order. Empty, never nil,
	// when the cursor is at or past the tail.
	Events []Event `json:"items"`
	// Total is the number of events ever recorded (the tail Seq),
	// including any truncated out of the in-memory ring.
	Total int `json:"total"`
	// NextAfter is the cursor of the following page (pass it back as
	// after); 0 when this page reaches the tail.
	NextAfter int `json:"next_after,omitempty"`
	// OldestSeq is the Seq of the oldest event still in the in-memory
	// ring — 1 when nothing was truncated, 0 when the instance has no
	// events at all.
	OldestSeq int `json:"oldest_seq"`
	// Truncated reports that the requested range began before the
	// oldest event the instance still has anywhere, so the page starts
	// there instead. Only a history whose head was never kept can do
	// that: one ring-truncated before history archives existed, when
	// the dropped events lived only in the execution log.
	Truncated bool `json:"truncated"`
	// Backfilled counts events in this page served from outside the
	// ring: from the spill awaiting the next fold or from a history
	// archive (0 on pages served straight from the ring).
	Backfilled int `json:"backfilled,omitempty"`
}

// History is the cold tier of the instance event history: immutable,
// checksummed archive files that snapshot folding moves ring-truncated
// events into (see EmitSnapshots). The facade wires the instance
// journal's archive store; a runtime without one keeps every truncated
// event in its in-memory spill.
type History interface {
	// ArchiveHistory durably writes one batch of encoded events per
	// instance, in order, as a single archive and returns the
	// archive's number. It runs inside a fold, before the snapshot
	// that references the archive installs.
	ArchiveHistory(batches iter.Seq2[string, []byte]) (uint64, error)
	// ReadHistory streams archive n's batches through fn in write
	// order and fails when the archive does not verify against its
	// checksum.
	ReadHistory(n uint64, fn func(id string, data []byte) error) error
}

// HistoryRef locates one instance's archived events: the archive and
// the seq range [From, To] the instance's batch in it covers.
type HistoryRef struct {
	Archive uint64 `json:"archive"`
	From    int    `json:"from"`
	To      int    `json:"to"`
}

// Events returns a page of the instance's history: events with
// Seq > after, at most limit of them (limit <= 0 means no bound), and
// the cursor of the next page. The page stitches the instance's three
// tiers in seq order — archived batches, read back from disk, then the
// spill, then the ring — so ring truncation never hides history;
// Backfilled counts what came from outside the ring. ErrNotFound when
// the instance does not exist; an archive that fails verification is
// an error too, never a short page.
func (r *Runtime) Events(id string, after, limit int) (EventPage, error) {
	in, ok := r.lookup(id)
	if !ok {
		return EventPage{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if after < 0 {
		after = 0
	}
	in.mu.Lock()
	page := EventPage{Total: in.eventSeq}
	if len(in.events) > 0 {
		page.OldestSeq = in.truncatedEvs + 1
	}
	// memFrom is the seq of the first in-memory event: the spill, then
	// the ring, are one run of seqs [memFrom .. eventSeq]. Archived
	// batches cover the run right before it.
	memFrom := in.truncatedEvs - len(in.spill) + 1
	first := memFrom
	if len(in.archived) > 0 {
		first = in.archived[0].From
	}
	if after < first-1 {
		page.Truncated = true
		after = first - 1
	}
	cold := max(memFrom-1-after, 0)
	if limit > 0 {
		cold = min(cold, limit)
	}
	var refs []HistoryRef
	for _, ref := range in.archived {
		if ref.To > after && ref.From <= after+cold {
			refs = append(refs, ref)
		}
	}
	start := max(after+1, memFrom) - memFrom // index into spill ++ ring
	end := len(in.spill) + len(in.events)
	if limit > 0 {
		end = min(end, start+limit-cold)
	}
	mem := make([]Event, 0, max(end-start, 0))
	if start < end {
		if start < len(in.spill) {
			mem = append(mem, in.spill[start:min(end, len(in.spill))]...)
		}
		if end > len(in.spill) {
			mem = append(mem, in.events[max(start-len(in.spill), 0):end-len(in.spill)]...)
		}
	}
	page.Backfilled = cold + max(min(end, len(in.spill))-start, 0)
	in.mu.Unlock()

	page.Events = mem
	if cold > 0 {
		evs, err := r.readArchived(id, refs, after, cold)
		if err != nil {
			return EventPage{}, err
		}
		page.Events = append(evs, mem...)
	}
	if n := len(page.Events); n > 0 && page.Events[n-1].Seq < page.Total {
		page.NextAfter = page.Events[n-1].Seq
	}
	return page, nil
}

// readArchived reads the n events after the cursor from the
// instance's archived batches refs, which are contiguous and cover
// them. It runs without the instance lock: archives are immutable and
// a ref, once added, never changes.
func (r *Runtime) readArchived(id string, refs []HistoryRef, after, n int) ([]Event, error) {
	if r.cfg.History == nil {
		return nil, fmt.Errorf("runtime: history of %s is archived but no history store is wired", id)
	}
	out := make([]Event, 0, n)
	for _, ref := range refs {
		var batch []Event
		found := false
		err := r.cfg.History.ReadHistory(ref.Archive, func(bid string, data []byte) error {
			if bid != id {
				return nil
			}
			if found {
				return fmt.Errorf("two batches in one archive")
			}
			found = true
			return json.Unmarshal(data, &batch)
		})
		if err == nil && (!found || len(batch) != ref.To-ref.From+1 ||
			batch[0].Seq != ref.From || batch[len(batch)-1].Seq != ref.To) {
			err = fmt.Errorf("batch does not cover seqs %d..%d", ref.From, ref.To)
		}
		if err != nil {
			return nil, fmt.Errorf("runtime: history of %s, archive %d: %w", id, ref.Archive, err)
		}
		for _, ev := range batch {
			if ev.Seq > after && len(out) < n {
				out = append(out, ev)
			}
		}
	}
	return out, nil
}

// encodeEvents renders events as the JSON array an archived batch
// holds, at codec speed.
func encodeEvents(evs []Event) []byte {
	buf := make([]byte, 0, 2+160*len(evs))
	buf = append(buf, '[')
	for i := range evs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendEvent(buf, &evs[i])
	}
	return append(buf, ']')
}
