package runtime

// Population index: the creation-ordered lists of instances behind
// every population read.
//
// One type, seqList, holds a list of instance pointers in creation-seq
// order under its own read-write lock. The runtime keeps one for the
// whole population and one per resource URI and per model URI
// (uriIndex). Instances enter the lists where an instance is published
// — Instantiate, instantiate replay and replaySnapshot — and a model
// switch moves one between model lists; instances are never removed,
// so the population list only grows.
//
// The ordering rule is the same for every list. Seq is allocated
// before publication, so racing Instantiates, and a switch of an old
// instance into a model's list, may add below the tail. A live add
// binary-searches for its slot and inserts there, so the common
// in-order add stays an amortized O(1) append. An add during replay —
// from the first ApplyJournal to FinishRecovery — always appends and
// marks the list unsorted, so parallel replay lanes and shuffled
// legacy snapshots pay O(1) per add, and FinishRecovery sorts each
// marked list once. Readers never sort and never take a write lock.
// Population adds that land below the tail are counted in
// Stats.PopulationIndex.OutOfOrderInserts.
//
// Every population read is one walk (seqList.walk): under the list's
// read lock it seeks the cursor by binary search and copies a bounded
// batch of pointers past it; then, holding no list lock, it checks
// Filter.matches — the one predicate every listing uses — under each
// instance's own lock, so only emitted items pay for a Summary. A
// query naming a resource or model URI walks that URI's list, any
// other walks the population list: an unfiltered page costs one binary
// search and a copy of limit+1 pointers. EmitSnapshots walks the
// population too, so snapshot files are written, and replayed, in
// creation order.

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/liquidpub/gelee/internal/shardkey"
)

// seqList is a creation-ordered list of instances: the population, or
// the entry of one resource or model URI. mu guards list and unsorted;
// walk releases it before taking an instance's lock.
type seqList struct {
	mu   sync.RWMutex
	list []*instance
	// unsorted marks a list a replay add appended below its tail;
	// FinishRecovery sorts it (settle).
	unsorted bool
}

// walkBatch caps the pointers one walk step copies under the read lock.
const walkBatch = 1024

// add places in by the ordering rule and reports whether it landed
// below the tail: a live add inserts at its seq's slot, a replay add
// appends and leaves the list for settle.
func (l *seqList) add(in *instance, replaying bool) (below bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.list)
	switch {
	case n == 0 || l.list[n-1].seq < in.seq:
		l.list = append(l.list, in)
		return false
	case replaying:
		l.list = append(l.list, in)
		l.unsorted = true
	default:
		l.list = slices.Insert(l.list, l.search(in.seq), in)
	}
	return true
}

// remove drops in and reports whether the list is left empty.
// Deleting keeps the rest in order.
func (l *seqList) remove(in *instance) (empty bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := slices.Index(l.list, in); i >= 0 {
		l.list = slices.Delete(l.list, i, i+1)
	}
	return len(l.list) == 0
}

// settle sorts a list replay left unsorted; FinishRecovery calls it
// once per list.
func (l *seqList) settle() {
	l.mu.Lock()
	if l.unsorted {
		sortBySeq(l.list)
		l.unsorted = false
	}
	l.mu.Unlock()
}

// search returns the position of the first instance with seq > after;
// callers hold mu.
func (l *seqList) search(after int64) int {
	return sort.Search(len(l.list), func(i int) bool { return l.list[i].seq > after })
}

// len reports the list's length; a nil list is empty.
func (l *seqList) len() int {
	if l == nil {
		return 0
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.list)
}

// walk yields the instances with seq > after, in creation order, in
// batches; a nil list is empty. Each batch is copied under the read
// lock — at most first pointers, each later batch twice the last, up
// to walkBatch — and the loop body runs holding no list lock, so it
// may take instance locks. A batch is valid until the body returns.
// An instance added while the walk is in flight may or may not be
// seen; one added before it started is seen exactly once (see the
// cursor-stability test).
func (l *seqList) walk(after int64, first int) iter.Seq[[]*instance] {
	return func(yield func([]*instance) bool) {
		if l == nil {
			return
		}
		batch := min(max(first, 1), walkBatch)
		var buf []*instance
		for {
			l.mu.RLock()
			i := l.search(after)
			end := min(len(l.list), i+batch)
			buf = append(buf[:0], l.list[i:end]...)
			more := end < len(l.list)
			l.mu.RUnlock()
			if len(buf) == 0 || !yield(buf) || !more {
				return
			}
			after = buf[len(buf)-1].seq
			batch = min(2*batch, walkBatch)
		}
	}
}

// sortBySeq orders instances by creation sequence; seq is immutable so
// no lock is needed.
func sortBySeq(list []*instance) {
	slices.SortFunc(list, func(a, b *instance) int { return cmp.Compare(a.seq, b.seq) })
}

// uriIndex maps a resource or model URI to the seqList of the
// instances carrying it, striped by URI hash. A stripe's lock guards
// its map and is held across an entry's add or remove, so an entry
// emptied and dropped from the map is never added to again; readers
// take it only to find an entry.
type uriIndex struct {
	shards []*uriIndexShard
}

type uriIndexShard struct {
	mu sync.RWMutex
	m  map[string]*uriEntry
}

// uriEntry is one URI's list. key is the URI string the entry was
// created with: add hands it back, so callers can keep one copy per URI
// and compare it by pointer.
type uriEntry struct {
	key string
	seqList
}

func newURIIndex(n int) *uriIndex {
	ix := &uriIndex{shards: make([]*uriIndexShard, n)}
	for i := range ix.shards {
		ix.shards[i] = &uriIndexShard{m: make(map[string]*uriEntry)}
	}
	return ix
}

func (ix *uriIndex) shardFor(uri string) *uriIndexShard {
	return ix.shards[shardkey.Index(uri, len(ix.shards))]
}

// add files in under uri by the ordering rule and returns the entry's
// key string.
func (ix *uriIndex) add(uri string, in *instance, replaying bool) string {
	sh := ix.shardFor(uri)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[uri]
	if e == nil {
		e = &uriEntry{key: uri}
		sh.m[uri] = e
	}
	e.add(in, replaying)
	return e.key
}

// remove drops in from uri's entry (used when an owner switches the
// model an instance follows), and the entry once it is empty.
func (ix *uriIndex) remove(uri string, in *instance) {
	sh := ix.shardFor(uri)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.m[uri]; e != nil && e.remove(in) {
		delete(sh.m, uri)
	}
}

// get returns uri's list — nil when no instance carries uri — and the
// entry's key string (uri itself when there is no entry).
func (ix *uriIndex) get(uri string) (*seqList, string) {
	sh := ix.shardFor(uri)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.m[uri]; e != nil {
		return &e.seqList, e.key
	}
	return nil, uri
}

// settle sorts every entry replay left unsorted.
func (ix *uriIndex) settle() {
	for _, sh := range ix.shards {
		sh.mu.RLock()
		for _, e := range sh.m {
			e.settle()
		}
		sh.mu.RUnlock()
	}
}

// keys counts distinct URIs across stripes.
func (ix *uriIndex) keys() int {
	n := 0
	for _, sh := range ix.shards {
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// publish makes an already-constructed instance visible: its shard map
// entry, then its population, model and resource list slots, its
// cockpit-aggregate count and the instance id counter. It is the
// single publication point shared by Instantiate, instantiate replay
// and replaySnapshot; an id collision (replay only) inserts nothing
// and returns ErrAlreadyExists. A mutation racing in between the
// insert and the count is harmless: aggSync is idempotent, and
// whichever call comes first counts it.
func (r *Runtime) publish(in *instance) error {
	sh := r.shardFor(in.id)
	sh.mu.Lock()
	if _, exists := sh.instances[in.id]; exists {
		sh.mu.Unlock()
		return fmt.Errorf("%w: replayed existing instance %s", ErrAlreadyExists, in.id)
	}
	sh.instances[in.id] = in
	sh.mu.Unlock()
	replaying := r.replaying.Load()
	if r.pop.add(in, replaying) {
		r.popOutOfOrder.Add(1)
	}
	in.mu.Lock()
	in.modelURI = r.byModel.add(in.modelURI, in, replaying)
	r.aggSync(in)
	in.mu.Unlock()
	r.byRes.add(in.res.URI, in, replaying)
	bumpAtLeast(&r.nextInst, in.seq)
	return nil
}

// Filter is the pushed-down predicate of a population query: every
// field left zero matches all instances. Resource and ModelURI pick
// that URI's list to walk (O(matches), not O(N)); every field is then
// checked on the candidate's own fields under its lock
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

// listFor picks the list a query walks: the entry of the resource or
// model URI the filter names (nil when no instance carries it), else
// the population. A model URI is swapped for the entry's key string,
// the one the instances of the entry hold, so matches compares it by
// pointer.
func (r *Runtime) listFor(f *Filter) *seqList {
	switch {
	case f.Resource != "":
		l, _ := r.byRes.get(f.Resource)
		return l
	case f.ModelURI != "":
		var l *seqList
		l, f.ModelURI = r.byModel.get(f.ModelURI)
		return l
	}
	return &r.pop
}

// ForEachSummary streams the summaries of instances matching f with
// seq > after, in creation order, calling fn for each until it returns
// false or the list is exhausted: one walk of the list listFor picks.
// Each candidate is checked, and a summary built for a match, under
// its instance's lock only — no population-wide lock exists, so the
// stream is a sequence of point-in-time reads, not an atomic snapshot.
func (r *Runtime) ForEachSummary(f Filter, after int64, fn func(Summary) bool) {
	now := f.now(r)
	r.popIndexed.Add(1)
	for refs := range r.listFor(&f).walk(after, walkBatch) {
		for _, in := range refs {
			in.mu.Lock()
			if !f.matches(in, now) {
				in.mu.Unlock()
				continue
			}
			s := in.summary()
			in.mu.Unlock()
			if !fn(s) {
				return
			}
		}
	}
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
// It is one walk of the list listFor picks. A query naming a URI walks
// its entry past the cursor to the end — O(log m + m) cheap field
// checks, m being the entry's instances past the cursor, all needed
// for Total; any other stops at the first match past the page, which
// proves a next page exists. Summaries are built for the page's items
// only.
func (r *Runtime) QuerySummaries(f Filter, after int64, limit int) SummaryPage {
	now := f.now(r)
	r.popIndexed.Add(1)
	l := r.listFor(&f)
	countAll := f.Resource != "" || f.ModelURI != ""
	var page SummaryPage
	n := l.len()
	if f.zero() {
		page.Total = n
	}
	batch := walkBatch
	if limit > 0 {
		n = min(limit, n)
		if !countAll {
			batch = limit + 1
		}
	}
	page.Summaries = make([]Summary, 0, n)
	for refs := range l.walk(after, batch) {
		for _, in := range refs {
			in.mu.Lock()
			if !f.matches(in, now) {
				in.mu.Unlock()
				continue
			}
			if countAll {
				page.Total++
			}
			if limit <= 0 || len(page.Summaries) < limit {
				page.Summaries = append(page.Summaries, in.summary())
			} else if page.NextAfter == 0 {
				page.NextAfter = page.Summaries[limit-1].Seq
				if !countAll {
					in.mu.Unlock()
					return page
				}
			}
			in.mu.Unlock()
		}
	}
	return page
}

// PopIndexStats is the population-index section of the admin runtime
// payload.
type PopIndexStats struct {
	// Entries is the length of the population list. It equals
	// Stats.Instances, the shard maps' count, whenever no publish is in
	// flight; a difference is a membership bug.
	Entries int `json:"entries"`
	// OutOfOrderInserts counts population adds that landed below an
	// already-published higher seq: concurrent Instantiates racing
	// (inserted at their slot), or replay interleaving snapshots with
	// tail records (appended, then sorted once by FinishRecovery).
	OutOfOrderInserts int64 `json:"out_of_order_inserts"`
	// IndexedQueries counts population queries, each one walk of the
	// population list or of a URI's list.
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
