package runtime

// Population index: the incrementally maintained, creation-seq-ordered
// view of the instance table that serves every population listing.
//
// Each shard keeps, next to its id→instance map, an `ordered` slice of
// the same instance pointers sorted by creation sequence. The slice is
// maintained under the shard's existing membership lock at the three
// places an instance is ever published — Instantiate, instantiate
// replay and replaySnapshot — and instances are never removed, so the slice
// only grows. Because seq is allocated before publication, two
// concurrent Instantiates may publish out of order; the insert binary-
// searches from the tail, which makes the common in-order publish an
// amortized O(1) append and counts the rare out-of-order shuffle in
// Stats.PopulationIndex.OutOfOrderInserts.
//
// Reads merge the per-shard runs: pageRefs seeks each shard's slice to
// the cursor with one binary search (O(log n) per shard), copies at
// most one page of pointers per shard under the read lock, and k-way
// merges the runs by seq — O(shards·(log n + page)) per page instead of
// an O(N log N) copy-and-sort of the whole table. Streaming
// callers (Summaries, Instances, the monitor's cockpit rebuild) iterate
// the index in fixed-size batches via forEachRef, so no call ever
// materializes the full population at once. EmitSnapshots walks it
// too, so snapshot files are written, and replayed, in creation order.
//
// Filtered reads start from the resource or model URI index instead,
// whose entries are seq-ordered by append plus a lazy sort (uriEntry):
// the cursor is seeked by binary search, the tail past it is copied,
// and Filter.matches — the one predicate every listing uses — is
// checked on each candidate's fields, so only emitted items pay for a
// Summary.

import (
	"fmt"
	"sort"
	"time"
)

// insertOrdered places in into the shard's seq-ordered slice; callers
// hold sh.mu. Returns true when the insert was not a plain append —
// i.e. a lower-seq instance was published after a higher-seq neighbor.
func (sh *shard) insertOrdered(in *instance) bool {
	n := len(sh.ordered)
	if n == 0 || sh.ordered[n-1].seq < in.seq {
		sh.ordered = append(sh.ordered, in)
		return false
	}
	i := sort.Search(n, func(i int) bool { return sh.ordered[i].seq > in.seq })
	sh.ordered = append(sh.ordered, nil)
	copy(sh.ordered[i+1:], sh.ordered[i:])
	sh.ordered[i] = in
	return true
}

// publish makes an already-constructed instance visible: its shard map
// entry and population-index slot in one critical section, then its
// resource and model index entries, its cockpit-aggregate count and
// the instance id counter. It is the single publication point shared
// by Instantiate, instantiate replay and replaySnapshot; an id
// collision (replay only) inserts nothing and returns ErrAlreadyExists.
// A mutation racing in between the insert and the count is harmless:
// aggSync is idempotent, and whichever call comes first counts it.
func (r *Runtime) publish(in *instance) error {
	sh := r.shardFor(in.id)
	sh.mu.Lock()
	if _, exists := sh.instances[in.id]; exists {
		sh.mu.Unlock()
		return fmt.Errorf("%w: replayed existing instance %s", ErrAlreadyExists, in.id)
	}
	sh.instances[in.id] = in
	if sh.insertOrdered(in) {
		r.popOutOfOrder.Add(1)
	}
	sh.mu.Unlock()
	in.mu.Lock()
	in.modelURI = r.byModel.add(in.modelURI, in)
	r.aggSync(in)
	in.mu.Unlock()
	r.byRes.add(in.res.URI, in)
	bumpAtLeast(&r.nextInst, in.seq)
	return nil
}

// pageRefs returns up to limit instance pointers with seq > after, in
// creation order, merged from the per-shard ordered runs. more reports
// whether instances beyond the returned page existed at read time
// (limit <= 0 means no bound, so more is always false). Only shard
// read locks are taken, one stripe at a time, and at most limit+1
// pointers are copied per stripe.
func (r *Runtime) pageRefs(after int64, limit int) (refs []*instance, more bool) {
	runs := make([][]*instance, 0, len(r.shards))
	for _, sh := range r.shards {
		sh.mu.RLock()
		ord := sh.ordered
		i := sort.Search(len(ord), func(i int) bool { return ord[i].seq > after })
		if i < len(ord) {
			end := len(ord)
			if limit > 0 && i+limit+1 < end {
				end = i + limit + 1
			}
			runs = append(runs, append([]*instance(nil), ord[i:end]...))
		}
		sh.mu.RUnlock()
	}
	if len(runs) == 0 {
		return nil, false
	}
	// K-way merge by seq. Shard counts are small (16 by default), so a
	// linear scan over the run heads beats heap bookkeeping.
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	want := total
	if limit > 0 && limit < want {
		want = limit
	}
	refs = make([]*instance, 0, want)
	for len(refs) < want {
		best := -1
		for i, run := range runs {
			if len(run) == 0 {
				continue
			}
			if best < 0 || run[0].seq < runs[best][0].seq {
				best = i
			}
		}
		refs = append(refs, runs[best][0])
		runs[best] = runs[best][1:]
	}
	if limit > 0 && total > limit {
		more = true
	}
	return refs, more
}

// forEachRef streams instance pointers in creation order with
// seq > after, in fixed-size batches off the population index, so the
// full population is never materialized at once. fn returning false
// stops the walk. Instances published while the walk is in flight may
// or may not be seen; instances published before it started are seen
// exactly once (see the cursor-stability test).
func (r *Runtime) forEachRef(after int64, fn func(*instance) bool) {
	const batch = 1024
	for {
		refs, more := r.pageRefs(after, batch)
		for _, in := range refs {
			if !fn(in) {
				return
			}
		}
		if !more {
			return
		}
		after = refs[len(refs)-1].seq
	}
}

// Filter is the pushed-down predicate of a population query: every
// field left zero matches all instances. Resource and ModelURI route
// the query to the secondary URI indexes (O(matches), not O(N)); every
// field is then checked on the candidate's own fields under its lock
// (see matches), so no summary is built for a candidate the filter
// rejects and no event history is touched either way.
type Filter struct {
	// Resource matches instances running on exactly this resource URI.
	Resource string
	// ModelURI matches instances whose model provenance is this URI
	// (re-checked per instance: owners can switch models).
	ModelURI string
	// State matches instances in the given lifecycle state ("" = any).
	State State
	// LateOnly keeps only active instances past their current phase's
	// deadline at Now (zero Now = the runtime clock's now).
	LateOnly bool
	// Now is the instant LateOnly is evaluated against.
	Now time.Time
}

// zero reports whether the filter matches everything.
func (f *Filter) zero() bool {
	return f.Resource == "" && f.ModelURI == "" && f.State == "" && !f.LateOnly
}

// now resolves the instant LateOnly is evaluated against.
func (f *Filter) now(r *Runtime) time.Time {
	if f.LateOnly && f.Now.IsZero() {
		return r.clock.Now()
	}
	return f.Now
}

// matches is the one filter predicate of every listing. It reads the
// instance's fields directly — the same ones summary() would copy — and
// resolves the due time only for LateOnly, the Summary.Late predicate
// on the Summary.Due value. Callers hold in.mu.
func (f *Filter) matches(in *instance, now time.Time) bool {
	if f.Resource != "" && in.res.URI != f.Resource {
		return false
	}
	if f.ModelURI != "" && in.modelURI != f.ModelURI {
		return false
	}
	if f.State != "" && in.state != f.State {
		return false
	}
	if f.LateOnly {
		_, due := in.currentPhase()
		return in.state == StateActive && !due.IsZero() && now.After(due)
	}
	return true
}

// candidateRefs resolves the candidate stream of a filtered query:
// the tail past the cursor of the matching secondary index entry when
// the filter names a resource or model URI, in creation order; nil
// with fromIndex=false when the query must walk the population index.
// A model URI is swapped for the index's key string, the one the
// instances of the entry hold, so matches compares it by pointer.
func (r *Runtime) candidateRefs(f *Filter, after int64) (refs []*instance, fromIndex bool) {
	switch {
	case f.Resource != "":
		refs, _ = r.byRes.after(f.Resource, after)
		return refs, true
	case f.ModelURI != "":
		refs, f.ModelURI = r.byModel.after(f.ModelURI, after)
		return refs, true
	}
	return nil, false
}

// ForEachSummary streams the summaries of instances matching f with
// seq > after, in creation order, calling fn for each until it returns
// false or the population is exhausted. Queries naming a resource or
// model URI are served from the secondary indexes (O(matches));
// everything else streams off the population index in batches. Each
// candidate is checked, and a summary built for a match, under its
// instance's lock only — no population-wide lock exists, so the stream
// is a sequence of point-in-time reads, not an atomic snapshot (same
// contract Summaries always had).
func (r *Runtime) ForEachSummary(f Filter, after int64, fn func(Summary) bool) {
	now := f.now(r)
	emit := func(in *instance) bool {
		in.mu.Lock()
		if !f.matches(in, now) {
			in.mu.Unlock()
			return true
		}
		s := in.summary()
		in.mu.Unlock()
		return fn(s)
	}
	r.popIndexed.Add(1)
	if refs, fromIndex := r.candidateRefs(&f, after); fromIndex {
		for _, in := range refs {
			if !emit(in) {
				return
			}
		}
		return
	}
	r.forEachRef(after, emit)
}

// QuerySummaries returns one cursor window of the summaries matching f:
// at most limit of them (limit <= 0 means no bound) with creation
// sequence > after, in creation order. Total is as SummaryPage defines
// it: the matches with seq > after, except that an unfiltered query
// reports the whole live population and a filter naming neither a
// resource nor a model URI reports 0 (unknown) — counting those
// matches would cost the full walk the page exists to avoid. NextAfter
// is the cursor of the following page, 0 at the tail.
//
// A query naming a URI costs O(log m) to seek the index entry, m
// cheap field checks under each candidate's lock (m = the entry's
// instances past the cursor, all needed for Total), and summaries for
// the page's items only.
func (r *Runtime) QuerySummaries(f Filter, after int64, limit int) SummaryPage {
	now := f.now(r)
	var page SummaryPage
	r.popIndexed.Add(1)

	if refs, fromIndex := r.candidateRefs(&f, after); fromIndex {
		n := len(refs)
		if limit > 0 && limit < n {
			n = limit
		}
		page.Summaries = make([]Summary, 0, n)
		for _, in := range refs {
			in.mu.Lock()
			if !f.matches(in, now) {
				in.mu.Unlock()
				continue
			}
			page.Total++
			if limit <= 0 || len(page.Summaries) < limit {
				page.Summaries = append(page.Summaries, in.summary())
			} else if page.NextAfter == 0 {
				page.NextAfter = page.Summaries[limit-1].Seq
			}
			in.mu.Unlock()
		}
		return page
	}

	if f.zero() {
		page.Total = r.Count()
		refs, more := r.pageRefs(after, limit)
		page.Summaries = make([]Summary, 0, len(refs))
		for _, in := range refs {
			in.mu.Lock()
			page.Summaries = append(page.Summaries, in.summary())
			in.mu.Unlock()
		}
		if more {
			page.NextAfter = refs[len(refs)-1].seq
		}
		return page
	}

	// Predicate-filtered walk: stream the population index, keep
	// matches until the page fills, then stop at the first match past
	// it, which proves a next page exists.
	r.forEachRef(after, func(in *instance) bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		if !f.matches(in, now) {
			return true
		}
		if limit > 0 && len(page.Summaries) >= limit {
			page.NextAfter = page.Summaries[limit-1].Seq
			return false
		}
		page.Summaries = append(page.Summaries, in.summary())
		return true
	})
	return page
}

// PopIndexStats is the population-index section of the admin runtime
// payload.
type PopIndexStats struct {
	// Entries is the number of instances the ordered index holds — by
	// construction equal to the live population.
	Entries int `json:"entries"`
	// OutOfOrderInserts counts publishes that landed below an already-
	// published higher seq (concurrent Instantiates racing, or replay
	// interleaving snapshots with tail records) and so paid a shuffle
	// instead of an append.
	OutOfOrderInserts int64 `json:"out_of_order_inserts"`
	// IndexedQueries counts population queries served from the ordered
	// index or a secondary URI index — every population query is.
	IndexedQueries int64 `json:"indexed_queries"`
	// ScanQueries is always 0: no population query scans the instance
	// table any more. The field stays because benchmark reports read
	// it as scan_queries.
	ScanQueries int64 `json:"scan_queries"`
	// AggregateDueHeap is the number of late-eligible instances the
	// cockpit aggregate holds as not yet late at its last read (see
	// aggregate.go); AggregateRewinds counts reads that asked about an
	// earlier instant than the read before them — a wall-clock step
	// back, or concurrent readers arriving out of clock order — and so
	// moved entries from late back to pending.
	AggregateDueHeap int   `json:"aggregate_due_heap"`
	AggregateRewinds int64 `json:"aggregate_rewinds"`
}
