// Package runtime implements the run-time module of the Gelee lifecycle
// manager (§IV.B, §IV.C and Fig. 2): lifecycle instances, human-driven
// token movement, action dispatch on phase entry, callback handling, and
// light-coupled model-change propagation.
//
// There is deliberately no workflow engine here. "The engine is the
// human, who executes the lifecycle instances (i.e., moves the tokens
// from phase to phase) and, while doing so, initiates the execution of
// actions." The runtime only reacts to externally driven events; it
// never decides a transition on its own.
//
// # Concurrency and locking model
//
// The runtime is built for many independent humans advancing many
// independent instances at once, so there is no runtime-wide lock.
// State is split across three kinds of locks:
//
//   - Shard locks. The instance table is hash-partitioned (instance id
//     → shard via the shared FNV-1a in internal/shardkey) into
//     Config.Shards stripes. A shard's RWMutex guards only map
//     membership — looking up or inserting an *instance pointer. It is
//     never held across a mutation or a snapshot copy, and instances
//     are never removed, so a pointer obtained under a shard read-lock
//     stays valid forever.
//
//   - Instance locks. Every instance carries its own mutex guarding
//     all of its mutable state (token position, state, model, event
//     history, executions, bindings, pending proposal). All mutation
//     and all snapshot deep-copies happen under this lock only, so
//     Advance/Annotate/Report on different instances share no lock at
//     all.
//
//   - Index locks. Secondary indexes — resource URI → instances,
//     model URI → instances, invocation id → instance — are themselves
//     striped with their own RWMutexes, so ByResource/ByModelURI and
//     callback routing are O(matches), not O(all instances).
//
// Lock order: an instance lock may be acquired while holding no other
// lock, and index locks may be acquired while holding an instance
// lock. Shard and index locks are leaves with respect to each other —
// no code path holds two of them at once except the read-only Stats
// walk, and none acquires an instance lock while holding a shard lock.
// The cockpit aggregate's mutex is a leaf too: taken under an instance
// lock or alone, never held while acquiring another (aggregate.go).
// Monotonic counters (instance ids, invocation ids) are atomics.
//
// Events observed via Config.Observer are delivered outside every
// lock; per-instance event order is defined by the Seq stamped under
// the instance lock, which is gapless and strictly increasing.
//
// # Read path: what is O(1), what still copies
//
// Every mutation maintains per-instance counters (deviations, failed
// steps, pending invocations, total events) under the instance lock, so
// the cheap projections never rescan history:
//
//   - Summary / Summaries: O(phases) per instance — counters, token
//     position and the current phase's resolved due date, with no event
//     slice, no execution slice and no model copy. The monitoring
//     cockpit's Overview and Late views stream summaries, so they cost
//     O(matches).
//   - Aggregate: O(phases + models), independent of the population.
//     The cockpit summary's headline numbers — totals by state, phase
//     and model, deviation/failure/proposal sums and the late count —
//     are maintained at mutation time and on replay, each instance
//     recording the contribution it last added; lateness is swept off
//     due-time heaps at read time. See aggregate.go.
//   - MoveResult (AdvanceSummary, AcceptChangeSummary,
//     SwitchModelSummary): the post-move summary plus only the events
//     that call appended — the copy-free response mode of the HTTP tier.
//   - Events: a paged window of one instance's history, copying only
//     the requested page.
//   - Count / RuntimeStats: shard-membership reads only.
//
// Snapshot / Instances still deep-copy the full event and execution
// history plus bindings; they remain the right call for audit views and
// tests, not for per-request or per-population hot paths.
//
// # Population index
//
// Every population listing — Summaries, QuerySummaries,
// ForEachSummary, Instances, the monitor's cockpit rebuild — is served
// from an incrementally maintained ordered index instead of a
// copy-and-sort scan. Each shard keeps a slice of its instance
// pointers sorted by creation seq, guarded by the same shard
// membership lock as the map and updated at the three publication
// sites: Instantiate, instantiate replay and snapshot replay (so a
// restart rebuilds the index as a side effect of replay, with no
// separate pass). Instances are never removed, so the index only
// grows. Reads seek each shard's slice to the cursor with a binary
// search and k-way merge the per-shard runs by seq: a page costs
// O(shards·(log N/shards + page)) and streaming walks touch one batch
// of pointers at a time — the full population is never materialized or
// re-sorted per call. Because the creation seq is allocated before
// publication, concurrent Instantiates may publish out of order;
// inserts handle that with a from-the-tail binary search (the in-order
// common case stays an amortized O(1) append) and the admin stats
// count the out-of-order shuffles. Filtered queries (Filter) push
// resource/model URIs down to the secondary indexes, whose entries are
// kept in creation order too: a filtered page seeks the entry to the
// cursor in O(log m), checks the filter on each of the m candidates
// past it under that instance's lock (cheap field reads, needed for
// the page's Total), and builds summaries for the page's items only —
// O(log m + m + page) rather than sorting the entry and summarizing
// every candidate. See popindex.go.
//
// # History truncation
//
// Histories grow without bound by default. Setting
// Config.MaxEventsInMemory ring-truncates each instance's in-memory
// history: once it exceeds the cap by 25% the oldest events are
// dropped back down to the cap (amortizing the copy), so an instance
// retains between MaxEventsInMemory and 1.25×MaxEventsInMemory events.
// Seq numbering stays gapless — Events reports the oldest retained seq
// and flags reads that begin before it — and because aggregates come
// from the incremental counters, truncation never changes a Summary or
// a cockpit aggregate. The journaled execution log keeps full history
// (the facade backfills truncated timeline pages from it).
//
// # Durability model
//
// Instances live in RAM. Wiring Config.Journal makes them durable:
// every mutating verb — Instantiate, Advance, Annotate, BindParams,
// Report, a failed dispatch, ProposeChange, Accept/RejectChange,
// SwitchModel — emits exactly one typed JournalRecord through the sink
// before the mutation is acknowledged to the caller.
//
// What is journaled: the record carries the mutation's identity, the
// events it appended (already stamped with their gapless Seq and
// Time), and whatever replay cannot re-derive — the created
// executions of an Advance, the proposed model of a change, the
// post-move token-state mirrors (State/Current/CompletedAt). Policy
// decisions, action dispatch and observer delivery are NOT journaled;
// they are side effects of the first life only.
//
// Ordering: records are emitted while the mutated instance's lock is
// held, so the journal's per-instance record order is exactly the
// order a live reader could have observed — and because the sink only
// acknowledges durable records, no reader ever observes state that a
// crash could take back. Cross-instance order in the journal is
// arbitrary, as instances share no state.
//
// Replay: on restart, stream every record through ApplyJournal (single
// goroutine, journal order) and close with FinishRecovery. Replay
// rebuilds everything the live path maintains: token positions, event
// histories (ring truncation applied with the new config), executions,
// pending proposals, the resource/model/invocation indexes, the
// monotonic id counters, and every incremental counter — deviations,
// failed steps, pending invocations, per-phase entered/residence
// stats — plus the cockpit aggregate, which each applied record and
// each published instance brings up to date. Events flow through the
// same applier (applyRecorded) live and on replay, which is what makes
// the rebuilt counters equal by construction rather than by
// re-derivation.
//
// Failure semantics are fail-forward: if the sink errors, the
// in-memory mutation stands (Instantiate excepted — it journals before
// publication and aborts cleanly), the caller gets the error, observer
// delivery and dispatch are suppressed, and the append-error counter
// surfaces on the admin endpoint. See journal.go.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/shardkey"
	"github.com/liquidpub/gelee/internal/vclock"
)

// Invoker delivers an action invocation to its implementation endpoint.
// Implementations may be synchronous (report status before returning)
// or asynchronous (status arrives later via Runtime.Report). A returned
// error means the dispatch itself failed; the runtime records it as a
// failed execution — actions are not guaranteed to succeed and there is
// no transactional semantic (§IV.C). The context carries the dispatch
// deadline (Config.DispatchTimeout) and lets callers cancel in-flight
// sends; implementations must respect it on any network path.
type Invoker interface {
	Invoke(ctx context.Context, inv actionlib.Invocation) error
}

// InvokerFunc adapts a function to the Invoker interface.
type InvokerFunc func(ctx context.Context, inv actionlib.Invocation) error

// Invoke calls f.
func (f InvokerFunc) Invoke(ctx context.Context, inv actionlib.Invocation) error { return f(ctx, inv) }

// Policy is the permission hook the runtime consults before mutating an
// instance. The zero-value allowAll policy suits embedded library use;
// the hosted service wires access.Control.
type Policy interface {
	// CanDrive: free moves, annotations, bindings, change accept/reject.
	CanDrive(actor, instanceID string) bool
	// CanFollow: moving the token along a suggested transition to target.
	CanFollow(actor, instanceID, target string) bool
}

type allowAll struct{}

func (allowAll) CanDrive(string, string) bool          { return true }
func (allowAll) CanFollow(string, string, string) bool { return true }

// Observer receives every event appended to any instance, synchronously
// with the mutation that produced it. The facade wires the execution
// log and the monitor; nil observers are skipped.
type Observer func(instanceID string, ev Event)

// DefaultShards is the instance-table stripe count when Config.Shards
// is zero. The same count stripes the secondary indexes.
const DefaultShards = 16

// Config assembles a Runtime.
type Config struct {
	Registry *actionlib.Registry // action types and implementations; required
	Invoker  Invoker             // action dispatch; nil = actions fail to dispatch
	Clock    vclock.Clock        // nil = wall clock
	Policy   Policy              // nil = allow everything
	Observer Observer            // nil = no observer
	// CallbackBase prefixes invocation callback URIs, e.g.
	// "http://host/api/v1/callbacks". Empty means "callback://" URIs,
	// which the local invoker and tests use.
	CallbackBase string
	// SyncActions makes Advance dispatch actions inline instead of in
	// goroutines. Order remains deliberately unspecified either way.
	SyncActions bool
	// DispatchTimeout caps one action dispatch end to end — including
	// any transport-level retries the Invoker performs. 0 leaves the
	// ceiling to the Invoker's own per-attempt timeouts.
	DispatchTimeout time.Duration
	// Shards is the instance-table lock-stripe count (0 =
	// DefaultShards, minimum 1). More shards, less contention.
	Shards int
	// MaxEventsInMemory caps each instance's in-memory event history
	// (0 = unbounded). See the package doc's truncation section.
	MaxEventsInMemory int
	// InvocationRetention is the grace window a terminal invocation's
	// callback-routing entry stays in the index for late duplicate
	// callbacks; after it the entry is garbage-collected. 0 keeps
	// entries for the full audit lifetime (the pre-GC behavior).
	InvocationRetention time.Duration
	// Journal is the persistence sink for instance mutation records
	// (nil = instances live only in RAM). Every mutation emits one
	// typed record through it, under the mutated instance's lock; see
	// the package doc's durability section.
	Journal Journal
}

// shard is one stripe of the instance table. Its lock guards only
// membership — the id→instance map and the seq-ordered slice mirroring
// it (the population index, see popindex.go); instance state is guarded
// by each instance's own mutex.
type shard struct {
	mu        sync.RWMutex
	instances map[string]*instance
	// ordered mirrors instances sorted by creation seq; maintained by
	// insertOrdered at every publish site, never shrunk (instances are
	// never removed).
	ordered []*instance
}

// uriIndex is a striped secondary index from a URI to the instances
// carrying it. Entries hold instance pointers so queries never re-hit
// the instance table, and are kept in creation-seq order so a cursor
// seeks them by binary search (see uriEntry).
type uriIndex struct {
	shards []*uriIndexShard
}

type uriIndexShard struct {
	mu sync.RWMutex
	m  map[string]*uriEntry
}

// uriEntry is one URI's instances. add only appends, so replaying a
// snapshot in any order costs O(1) per instance; an add below the
// tail's seq (a model switch, racing Instantiates, replay of an
// unordered file) marks the entry unsorted, and the next reader sorts
// it once under the stripe's write lock. seq is immutable, so sorting
// needs no instance lock.
type uriEntry struct {
	list     []*instance
	unsorted bool
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

// add appends in under uri.
func (ix *uriIndex) add(uri string, in *instance) {
	sh := ix.shardFor(uri)
	sh.mu.Lock()
	e := sh.m[uri]
	if e == nil {
		e = &uriEntry{}
		sh.m[uri] = e
	}
	if n := len(e.list); n > 0 && e.list[n-1].seq > in.seq {
		e.unsorted = true
	}
	e.list = append(e.list, in)
	sh.mu.Unlock()
}

// remove drops in from uri's entry (used when an owner switches the
// model an instance follows). Deleting keeps the rest in order.
func (ix *uriIndex) remove(uri string, in *instance) {
	sh := ix.shardFor(uri)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.m[uri]
	if e == nil {
		return
	}
	i := slices.Index(e.list, in)
	if i < 0 {
		return
	}
	e.list = slices.Delete(e.list, i, i+1)
	if len(e.list) == 0 {
		delete(sh.m, uri)
	}
}

// search returns the position of the first instance with seq > after
// in a sorted entry.
func (e *uriEntry) search(after int64) int {
	return sort.Search(len(e.list), func(i int) bool { return e.list[i].seq > after })
}

// after returns a copy of the tail of uri's entry past the cursor, in
// creation order, so callers take instance locks without the index
// lock (the lock order is instance → stripe). An unsorted entry is
// sorted first, once, under the write lock.
func (ix *uriIndex) after(uri string, after int64) []*instance {
	sh := ix.shardFor(uri)
	sh.mu.RLock()
	e := sh.m[uri]
	if e == nil || !e.unsorted {
		out := e.tail(after)
		sh.mu.RUnlock()
		return out
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e = sh.m[uri]
	if e != nil && e.unsorted {
		sortBySeq(e.list)
		e.unsorted = false
	}
	return e.tail(after)
}

// tail copies a sorted entry's instances with seq > after; nil-safe.
func (e *uriEntry) tail(after int64) []*instance {
	if e == nil {
		return nil
	}
	return slices.Clone(e.list[e.search(after):])
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

// invShard is one stripe of the invocation-id → instance index that
// routes action callbacks. exp queues terminal invocations for GC once
// their grace window passes; entries are appended under the shard lock
// with a monotone clock, so the queue is expiry-ordered.
type invShard struct {
	mu  sync.RWMutex
	m   map[string]*instance
	exp []invExpiry
}

// invExpiry marks a terminal invocation's index entry for removal at
// the given instant.
type invExpiry struct {
	id string
	at time.Time
}

// Runtime manages every lifecycle instance of a deployment.
type Runtime struct {
	cfg    Config
	clock  vclock.Clock
	policy Policy

	shards  []*shard    // instance id → stripe
	inv     []*invShard // invocation id → instance, for callback routing
	byRes   *uriIndex   // resource URI → instances
	byModel *uriIndex   // model URI → instances (provenance)

	nextInst atomic.Int64
	nextInv  atomic.Int64
	dispatch sync.WaitGroup

	// instPub spans Instantiate's journal-append + shard-publish window
	// (held shared). EmitSnapshots takes it exclusively as a barrier
	// before walking the shards, so a fold can never capture a journal
	// boundary that covers an instantiate record whose instance is not
	// yet visible in the shard maps — the record would be folded away
	// with no snapshot standing in for it. See snapshot.go.
	instPub sync.RWMutex

	// Read-path health counters for the admin endpoint.
	totalEvents     atomic.Int64 // events ever recorded across instances
	truncatedEvents atomic.Int64 // events dropped by ring truncation
	invGCed         atomic.Int64 // invocation-index entries garbage-collected

	// Population-index counters (see popindex.go).
	popOutOfOrder atomic.Int64 // ordered inserts that were not appends
	popIndexed    atomic.Int64 // population queries served from indexes

	// agg is the cockpit aggregate behind Aggregate (see aggregate.go).
	agg *aggregate

	// Persistence counters (see journal.go). recoveryStart is written
	// once (recoveryOnce makes that safe under parallel replay);
	// recovery is written by FinishRecovery after the appliers join,
	// before the runtime serves traffic.
	journalAppends   atomic.Int64 // records accepted by the Journal sink
	journalErrors    atomic.Int64 // records the sink failed to persist
	recoveredRecords atomic.Int64 // records applied by ApplyJournal
	recoveryOnce     sync.Once
	recoveryStart    time.Time
	recovery         RecoveryStats
}

// New builds a Runtime from cfg. Registry is required.
func New(cfg Config) (*Runtime, error) {
	if cfg.Registry == nil {
		return nil, errors.New("runtime: Config.Registry is required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = vclock.System
	}
	policy := cfg.Policy
	if policy == nil {
		policy = allowAll{}
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	r := &Runtime{
		cfg:     cfg,
		clock:   clock,
		policy:  policy,
		shards:  make([]*shard, n),
		inv:     make([]*invShard, n),
		byRes:   newURIIndex(n),
		byModel: newURIIndex(n),
		agg:     newAggregate(),
	}
	for i := 0; i < n; i++ {
		r.shards[i] = &shard{instances: make(map[string]*instance)}
		r.inv[i] = &invShard{m: make(map[string]*instance)}
	}
	return r, nil
}

// Errors returned by runtime operations.
var (
	ErrNotFound      = errors.New("runtime: no such instance")
	ErrForbidden     = errors.New("runtime: actor lacks the required role")
	ErrUnknownPhase  = errors.New("runtime: phase not in instance model")
	ErrNoPending     = errors.New("runtime: no pending model change")
	ErrAlreadyExists = errors.New("runtime: duplicate")
)

// shardFor hashes an instance id onto its stripe.
func (r *Runtime) shardFor(id string) *shard {
	return r.shards[shardkey.Index(id, len(r.shards))]
}

// invShardFor hashes an invocation id onto its stripe.
func (r *Runtime) invShardFor(id string) *invShard {
	return r.inv[shardkey.Index(id, len(r.inv))]
}

// lookup resolves an instance pointer. The shard lock is released
// before the caller takes the instance lock — pointers stay valid
// because instances are never removed.
func (r *Runtime) lookup(id string) (*instance, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	in, ok := sh.instances[id]
	sh.mu.RUnlock()
	return in, ok
}

func (r *Runtime) observe(instID string, ev Event) {
	if r.cfg.Observer != nil {
		r.cfg.Observer(instID, ev)
	}
}

// record stamps and appends an event to the instance; callers hold
// in.mu. Seq numbering is derived from in.eventSeq, not the slice
// length, so it stays gapless across ring truncation.
func (r *Runtime) record(in *instance, ev Event) Event {
	ev.Seq = in.eventSeq + 1
	ev.Time = r.clock.Now()
	r.applyRecorded(in, ev)
	return ev
}

// applyRecorded appends an already-stamped event and maintains every
// event-derived counter — event totals, deviations, the per-phase
// entered/residence stats — plus the ring truncation. It is the one
// place an event enters an instance, shared by the live record() path
// and journal replay, which is what makes replayed counters equal the
// live ones by construction. When Config.MaxEventsInMemory is set the
// in-memory history is ring-truncated: once it exceeds the cap by 25%
// the oldest events are cut back down to the cap, amortizing the copy.
// Callers hold in.mu (or own the instance exclusively).
func (r *Runtime) applyRecorded(in *instance, ev Event) {
	if ev.Seq > in.eventSeq {
		in.eventSeq = ev.Seq
	}
	in.events = append(in.events, ev)
	r.totalEvents.Add(1)
	if ev.Kind == EventPhaseEntered {
		if ev.Deviation {
			in.deviations++
		}
		in.notePhaseEntered(ev.Phase, ev.Time)
	}
	if max := r.cfg.MaxEventsInMemory; max > 0 && len(in.events) > max+max/4 {
		drop := len(in.events) - max
		kept := make([]Event, max)
		copy(kept, in.events[drop:])
		in.events = kept
		in.truncatedEvs += drop
		r.truncatedEvents.Add(int64(drop))
	}
}

// invRetire schedules the invocation's callback-routing entry for GC
// once the grace window passes; a no-op when retention is disabled.
// Expired entries of the same stripe are swept on the way, so the index
// reclaims itself under normal mutation traffic with no sweeper
// goroutine. Safe to call with or without the owning instance's lock
// (index locks come after instance locks in the package lock order).
func (r *Runtime) invRetire(invID string) {
	ret := r.cfg.InvocationRetention
	if ret <= 0 {
		return
	}
	now := r.clock.Now()
	sh := r.invShardFor(invID)
	sh.mu.Lock()
	sh.exp = append(sh.exp, invExpiry{id: invID, at: now.Add(ret)})
	r.sweepInvShardLocked(sh, now)
	sh.mu.Unlock()
}

// sweepInvShardLocked drops the stripe's expired entries; callers hold
// sh.mu. The expiry queue is append-ordered by a monotone clock, so the
// scan stops at the first live entry.
func (r *Runtime) sweepInvShardLocked(sh *invShard, now time.Time) int {
	n := 0
	for _, e := range sh.exp {
		if e.at.After(now) {
			break
		}
		delete(sh.m, e.id)
		n++
	}
	if n > 0 {
		sh.exp = append(sh.exp[:0], sh.exp[n:]...)
		r.invGCed.Add(int64(n))
	}
	return n
}

// SweepInvocations drops every invocation-index entry whose grace
// window has passed and reports how many were reclaimed. Sweeps also
// piggyback on mutations touching each stripe; call this only for
// prompt reclamation (an idle deployment, a periodic admin tick).
func (r *Runtime) SweepInvocations() int {
	if r.cfg.InvocationRetention <= 0 {
		return 0
	}
	now := r.clock.Now()
	n := 0
	for _, sh := range r.inv {
		sh.mu.Lock()
		n += r.sweepInvShardLocked(sh, now)
		sh.mu.Unlock()
	}
	return n
}

// Instantiate creates a lifecycle instance of model on the resource ref,
// owned by owner. The model is deep-copied into the instance: later
// edits to the caller's model never affect the instance (light
// coupling). instBindings supplies instantiation-time parameter values
// per action URI; binding times are enforced.
//
// Action types referenced by the model are resolved against the
// resource type now (§V.B). Unresolvable actions do not block
// instantiation — the paper's robustness stance — but are reported in
// the snapshot's Unresolved list and will fail if their phase is
// entered before a plug-in appears.
func (r *Runtime) Instantiate(model *core.Model, ref resource.Ref, owner string, instBindings map[string]map[string]string) (Snapshot, error) {
	if model == nil {
		return Snapshot{}, errors.New("runtime: nil model")
	}
	if err := model.Validate(); err != nil {
		return Snapshot{}, err
	}
	if err := ref.Validate(); err != nil {
		return Snapshot{}, err
	}
	// Enforce instantiation-stage binding times before committing.
	for _, p := range model.Phases {
		for _, call := range p.Actions {
			vals := instBindings[call.URI]
			if len(vals) == 0 {
				continue
			}
			spec := r.specFor(call.URI)
			if err := actionlib.CheckStageBindings(spec, call, vals, actionlib.StageInstantiation); err != nil {
				return Snapshot{}, err
			}
		}
	}

	seq := r.nextInst.Add(1)
	in := &instance{
		id:           fmt.Sprintf("li-%06d", seq),
		seq:          seq,
		model:        model.Clone(),
		mcache:       buildModelCache(model),
		modelURI:     model.URI,
		res:          ref.Clone(),
		owner:        owner,
		state:        StateActive,
		createdAt:    r.clock.Now(),
		instBindings: cloneBindings(instBindings),
		executions:   make(map[string]*ActionExecution),
	}
	// Resolve every referenced action type against the resource type.
	seen := make(map[string]bool)
	for _, p := range in.model.Phases {
		for _, call := range p.Actions {
			if seen[call.URI] {
				continue
			}
			seen[call.URI] = true
			if _, err := r.cfg.Registry.Resolve(call.URI, ref.Type); err != nil {
				in.unresolved = append(in.unresolved, call.URI)
			}
		}
	}
	sort.Strings(in.unresolved)
	// Record and snapshot before publication: the instance is still
	// private, so no lock is needed.
	ev := r.record(in, Event{Kind: EventCreated, Actor: owner,
		Detail: fmt.Sprintf("model %q on %s (%s)", in.model.Name, ref.URI, ref.Type)})
	snap := in.snapshot()

	// Journal before publication: a failed append aborts cleanly — the
	// instance was never visible, so nothing needs rolling back. The
	// shared instPub lock keeps the append→publish window atomic with
	// respect to snapshot folding (see snapshot.go).
	r.instPub.RLock()
	defer r.instPub.RUnlock()
	// No instance goes to journalLocked: the instance is counted in the
	// cockpit aggregate when publish makes it visible.
	if err := r.journalLocked(nil, &JournalRecord{
		Op:         RecInstantiate,
		Instance:   in.id,
		Seq:        seq,
		Model:      in.model,
		ModelURI:   in.modelURI,
		Resource:   &in.res,
		Owner:      owner,
		CreatedAt:  in.createdAt,
		Unresolved: in.unresolved,
		Bindings:   in.instBindings,
		Events:     []Event{ev},
	}); err != nil {
		r.totalEvents.Add(-1)
		return Snapshot{}, err
	}

	r.publish(in)
	r.byRes.add(in.res.URI, in)
	r.byModel.add(in.modelURI, in)

	r.observe(in.id, ev)
	return snap, nil
}

func cloneBindings(b map[string]map[string]string) map[string]map[string]string {
	out := make(map[string]map[string]string, len(b))
	for uri, vals := range b {
		inner := make(map[string]string, len(vals))
		for k, v := range vals {
			inner[k] = v
		}
		out[uri] = inner
	}
	return out
}

// specFor returns the registered action type for uri, nil when unknown.
func (r *Runtime) specFor(uri string) *actionlib.ActionType {
	if t, ok := r.cfg.Registry.Type(uri); ok {
		return &t
	}
	return nil
}

// Instance returns a snapshot of the instance — a full deep copy of
// its history; prefer Summary for status polls.
func (r *Runtime) Instance(id string) (Snapshot, bool) {
	in, ok := r.lookup(id)
	if !ok {
		return Snapshot{}, false
	}
	in.mu.Lock()
	snap := in.snapshot()
	in.mu.Unlock()
	return snap, true
}

// Summary returns the lightweight projection of one instance: token
// position, counters and due-date inputs, with no history copy.
func (r *Runtime) Summary(id string) (Summary, bool) {
	in, ok := r.lookup(id)
	if !ok {
		return Summary{}, false
	}
	in.mu.Lock()
	sum := in.summary()
	in.mu.Unlock()
	return sum, true
}

// Count reports the live instance population — the sum of shard sizes,
// with no instance lock and no copying.
func (r *Runtime) Count() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.instances)
		sh.mu.RUnlock()
	}
	return n
}

// sortBySeq orders instances by creation sequence; seq is immutable so
// no lock is needed.
func sortBySeq(list []*instance) {
	sort.Slice(list, func(i, j int) bool { return list[i].seq < list[j].seq })
}

// Instances returns full snapshots of every instance in creation
// order, streamed off the population index. Each deep copy is made
// under that instance's own lock — for dashboards and list views
// prefer Summaries, which skips the event and execution histories.
func (r *Runtime) Instances() []Snapshot {
	out := make([]Snapshot, 0, r.Count())
	r.forEachRef(0, func(in *instance) bool {
		in.mu.Lock()
		out = append(out, in.snapshot())
		in.mu.Unlock()
		return true
	})
	return out
}

// Summaries returns a lightweight view of every instance in creation
// order: identity, token position, state and resource — no event
// history, no executions, no model copy. This is the cheap path for
// list endpoints and cockpit overviews over large populations; it
// streams off the population index without a full pointer copy or
// re-sort.
func (r *Runtime) Summaries() []Summary {
	out := make([]Summary, 0, r.Count())
	r.ForEachSummary(Filter{}, 0, func(s Summary) bool {
		out = append(out, s)
		return true
	})
	return out
}

// SummaryPage is one cursor window of the population's summary view,
// mirroring the per-instance timeline paging: summaries in creation
// order with Seq > after.
type SummaryPage struct {
	Summaries []Summary `json:"summaries"`
	// Total is the number of matches with seq > after, the cursor the
	// page was cut at. Two cases report something else: an unfiltered
	// query reports the whole live population, and a filter naming
	// neither a resource nor a model URI reports 0, unknown (see
	// QuerySummaries).
	Total int `json:"total"`
	// NextAfter is the cursor for the following page (pass it as
	// `after`); 0 when this page reaches the tail.
	NextAfter int64 `json:"next_after,omitempty"`
}

// PhaseStat is the incrementally maintained per-phase drill-down of
// one instance: how many times the token entered the phase and the
// cumulative residence time spent there.
type PhaseStat struct {
	Entered   int           `json:"entered"`
	Residence time.Duration `json:"residence"`
}

// PhaseStats returns the per-phase entered counts and residence times
// of one instance, with the current phase's open residence counted up
// to now (or to completion for completed instances). The counters are
// maintained at mutation time and rebuilt on replay, so — unlike an
// event rescan — they survive ring truncation of the in-memory
// history. The second return is false when the instance is unknown.
func (r *Runtime) PhaseStats(id string, now time.Time) (map[string]PhaseStat, bool) {
	in, ok := r.lookup(id)
	if !ok {
		return nil, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]PhaseStat, len(in.phaseEntered))
	for p, n := range in.phaseEntered {
		out[p] = PhaseStat{Entered: n, Residence: in.phaseResidence[p]}
	}
	if in.residPhase != "" {
		end := now
		if in.state != StateActive && !in.completedAt.IsZero() {
			end = in.completedAt
		}
		ps := out[in.residPhase]
		ps.Residence += end.Sub(in.residSince)
		out[in.residPhase] = ps
	}
	return out, true
}

// byIndexedURI snapshots the instances matching f, which names a
// resource or model URI, in creation order. The filter is re-checked
// under each instance's lock: the model index mutates on
// owner-initiated switches.
func (r *Runtime) byIndexedURI(f Filter) []Snapshot {
	refs, _ := r.candidateRefs(f, 0)
	var out []Snapshot
	for _, in := range refs {
		in.mu.Lock()
		if f.matches(in, time.Time{}) {
			out = append(out, in.snapshot())
		}
		in.mu.Unlock()
	}
	return out
}

// ByResource returns snapshots of every instance running on the given
// URI — several lifecycles on one URI are explicitly legal (§IV.B).
// Served from the resource index: O(matches), not O(instances).
func (r *Runtime) ByResource(uri string) []Snapshot {
	return r.byIndexedURI(Filter{Resource: uri})
}

// ByModelURI returns snapshots of instances created from the model with
// the given URI (provenance pointer; the instances own their copies).
// Served from the model index: O(matches), not O(instances).
func (r *Runtime) ByModelURI(uri string) []Snapshot {
	return r.byIndexedURI(Filter{ModelURI: uri})
}

// Annotate attaches a free-form note to the instance history.
func (r *Runtime) Annotate(instID, actor, note string) error {
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	if !r.policy.CanDrive(actor, instID) {
		return fmt.Errorf("%w: %s may not annotate %s", ErrForbidden, actor, instID)
	}
	in.mu.Lock()
	ev := r.record(in, Event{Kind: EventAnnotated, Actor: actor, Detail: note, Phase: in.current})
	if err := r.journalLocked(in, &JournalRecord{Op: RecAnnotate, Instance: instID, Events: []Event{ev}}); err != nil {
		in.mu.Unlock()
		return err
	}
	in.mu.Unlock()
	r.observe(instID, ev)
	return nil
}

// BindParams supplies instantiation-stage parameter values for an
// action after the instance was created ("actions can be configured if
// necessary", §IV.B). Binding times are enforced.
func (r *Runtime) BindParams(instID, actor, actionURI string, values map[string]string) error {
	in, ok := r.lookup(instID)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, instID)
	}
	if !r.policy.CanDrive(actor, instID) {
		return fmt.Errorf("%w: %s may not configure %s", ErrForbidden, actor, instID)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	// Find the call declaration (any phase) to check binding times.
	var call *core.ActionCall
	for _, p := range in.model.Phases {
		for i := range p.Actions {
			if p.Actions[i].URI == actionURI {
				call = &p.Actions[i]
				break
			}
		}
		if call != nil {
			break
		}
	}
	if call == nil {
		return fmt.Errorf("runtime: model of %s references no action %s", instID, actionURI)
	}
	spec := r.specFor(actionURI)
	if err := actionlib.CheckStageBindings(spec, *call, values, actionlib.StageInstantiation); err != nil {
		return err
	}
	if in.instBindings == nil {
		in.instBindings = make(map[string]map[string]string)
	}
	vals := in.instBindings[actionURI]
	if vals == nil {
		vals = make(map[string]string)
		in.instBindings[actionURI] = vals
	}
	for k, v := range values {
		vals[k] = v
	}
	return r.journalLocked(in, &JournalRecord{
		Op: RecBind, Instance: instID,
		Bindings: map[string]map[string]string{actionURI: values},
	})
}

// InFlight reports the number of non-terminal action executions of the
// instance; used by tests and the monitor.
func (r *Runtime) InFlight(instID string) int {
	in, ok := r.lookup(instID)
	if !ok {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, ex := range in.executions {
		if !ex.Terminal && ex.DispatchErr == "" {
			n++
		}
	}
	return n
}

// Stats is the runtime-health payload of GET /api/v1/admin/runtime:
// shard layout, instance population and secondary-index sizes.
type Stats struct {
	// Shards is the configured stripe count.
	Shards int `json:"shards"`
	// Instances is the total live instance count.
	Instances int `json:"instances"`
	// PerShard lists the instance count of each stripe, in order —
	// skew here means the id hash is misbehaving.
	PerShard []int `json:"per_shard"`
	// Invocations is the live size of the invocation→instance callback
	// routing index (kept forever unless Config.InvocationRetention
	// ages terminal entries out).
	Invocations int `json:"invocation_index"`
	// InvocationsGCed counts index entries aged out after their
	// execution turned terminal plus the grace window.
	InvocationsGCed int64 `json:"invocation_index_gced"`
	// ResourceKeys is the number of distinct resource URIs indexed.
	ResourceKeys int `json:"resource_index_keys"`
	// ModelKeys is the number of distinct model URIs indexed.
	ModelKeys int `json:"model_index_keys"`
	// EventsInMemory is the total event count currently retained across
	// all instance histories; EventsTruncated counts events dropped by
	// Config.MaxEventsInMemory ring truncation (the journaled execution
	// log still has them).
	EventsInMemory  int64 `json:"events_in_memory"`
	EventsTruncated int64 `json:"events_truncated"`
	// PopulationIndex reports the ordered index behind every population
	// listing (see popindex.go).
	PopulationIndex PopIndexStats `json:"population_index"`
	// Persistence reports the durability seam: write-through counters
	// and what the last replay recovered.
	Persistence PersistenceStats `json:"persistence"`
}

// PersistenceStats is the durability section of the admin runtime
// payload: whether a journal sink is wired, how many records it has
// accepted or failed, and what the startup replay recovered.
type PersistenceStats struct {
	Enabled bool `json:"enabled"`
	// Records/RecordErrors count mutation records the Journal sink
	// accepted / failed since start (failures are fail-forward: memory
	// kept the mutation, durability was lost — see journal.go).
	Records      int64 `json:"journal_records"`
	RecordErrors int64 `json:"journal_errors"`
	// Recovered is what the startup replay rebuilt.
	Recovered RecoveryStats `json:"recovered"`
}

// RuntimeStats reports shard occupancy and index sizes.
func (r *Runtime) RuntimeStats() Stats {
	st := Stats{
		Shards:   len(r.shards),
		PerShard: make([]int, len(r.shards)),
	}
	for i, sh := range r.shards {
		sh.mu.RLock()
		st.PerShard[i] = len(sh.instances)
		sh.mu.RUnlock()
		st.Instances += st.PerShard[i]
	}
	for _, sh := range r.inv {
		sh.mu.RLock()
		st.Invocations += len(sh.m)
		sh.mu.RUnlock()
	}
	st.ResourceKeys = r.byRes.keys()
	st.ModelKeys = r.byModel.keys()
	st.PopulationIndex = PopIndexStats{
		Entries:           st.Instances,
		OutOfOrderInserts: r.popOutOfOrder.Load(),
		IndexedQueries:    r.popIndexed.Load(),
	}
	st.PopulationIndex.AggregateDueHeap, st.PopulationIndex.AggregateRewinds = r.aggStats()
	st.InvocationsGCed = r.invGCed.Load()
	st.EventsTruncated = r.truncatedEvents.Load()
	st.EventsInMemory = r.totalEvents.Load() - st.EventsTruncated
	st.Persistence = PersistenceStats{
		Enabled:      r.cfg.Journal != nil,
		Records:      r.journalAppends.Load(),
		RecordErrors: r.journalErrors.Load(),
		Recovered:    r.recovery,
	}
	return st
}

// WaitDispatch blocks until every asynchronous action dispatch launched
// so far has handed its invocation to the Invoker. It does not wait for
// callbacks — actions complete whenever their implementation reports.
func (r *Runtime) WaitDispatch() { r.dispatch.Wait() }
