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
//   - Index locks. The creation-ordered lists — the population, each
//     resource URI's and each model URI's (popindex.go) — carry their
//     own RWMutexes, the URI maps are striped, and so is the
//     invocation id → instance index, so a filtered page, ByResource
//     and callback routing are O(matches), not O(all instances).
//
// Lock order: an instance lock may be acquired while holding no other
// lock, and index locks may be acquired while holding an instance
// lock. Shard and index locks are leaves with respect to each other —
// no code path holds two of them at once except the read-only Stats
// walk and a URI stripe's lock held over one of its lists' — and none
// acquires an instance lock while holding a shard or index lock.
// The cockpit aggregate's mutex is a leaf too: taken under an instance
// lock or alone, never held while acquiring another (aggregate.go).
// Monotonic counters (instance ids, invocation ids) are atomics.
//
// Per-instance event order is defined by the Seq stamped under the
// instance lock, which is gapless and strictly increasing.
//
// # Read path: what is O(1), what still copies
//
// Every mutation maintains per-instance counters (deviations, failed
// steps, pending invocations, total events) under the instance lock, so
// the cheap projections never rescan history:
//
//   - Summary / QuerySummaries: O(phases) per instance — counters, token
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
//     the requested page (archived pages are read back from disk).
//   - Count: the population list's length. RuntimeStats: shard and
//     index membership reads only.
//
// Instance and ByResource still deep-copy the full event and execution
// history plus bindings; they remain the right call for audit views and
// tests, not for per-request or per-population hot paths.
//
// # Population index
//
// Every population read — QuerySummaries, ForEachSummary, the
// monitor's cockpit rebuild, PropagateChange, ByResource, snapshot
// folding — walks one creation-ordered list (seqList): the population
// list, or the list of the resource or model URI a filter names.
// Instances enter the lists at the three publication sites —
// Instantiate, instantiate replay and snapshot replay — so a restart
// rebuilds them as a side effect of replay, with no separate pass; a
// model switch moves an instance between model lists. One ordering
// rule serves every list: because the creation seq is allocated before
// publication, adds may land below the tail; a live add inserts at its
// slot by binary search (the in-order common case stays an amortized
// O(1) append), while an add during replay appends and FinishRecovery
// sorts each list that got an out-of-order add, once. Readers never
// sort and never take a write lock. A walk seeks the cursor by binary
// search and copies a bounded batch of pointers under the list's read
// lock, then checks the filter under each instance's own lock and
// builds summaries for the page's items only: an unfiltered page costs
// O(log N + page), a filtered one O(log m + m + page) for the m
// instances of its URI past the cursor (all needed for the page's
// Total). The admin stats count population adds that landed below the
// tail. See popindex.go.
//
// # History truncation
//
// Histories grow without bound by default. Setting
// Config.MaxEventsInMemory ring-truncates each instance's in-memory
// history: once it exceeds the cap by 25% the oldest events are
// dropped back down to the cap (amortizing the copy), so the ring
// holds between MaxEventsInMemory and 1.25×MaxEventsInMemory events.
// Dropped events move to the instance's spill. The next snapshot fold
// writes every instance's spill once into a CRC-summed history archive
// (Config.History), and the spill is trimmed only after the snapshot
// that references the archive installs (see EmitSnapshots). Events
// stitches archived batches, spill and ring, so the full history stays
// addressable, and a restart restores all three tiers. Without a
// History (no instance journal) nothing folds and the spill stays in
// RAM. Seq numbering stays gapless, and because aggregates come from
// the incremental counters, truncation never changes a Summary or a
// cockpit aggregate.
//
// # Durability model
//
// Instances live in RAM. Wiring Config.Journal makes them durable:
// every mutating verb — Instantiate, Advance, Annotate, BindParams,
// Report, a failed dispatch, ProposeChange, Accept/RejectChange,
// SwitchModel — emits exactly one typed JournalRecord through the sink
// and applies the mutation only once the sink acknowledged the record.
//
// What is journaled: the record carries the mutation's identity, the
// events it appended (already stamped with their gapless Seq and
// Time), and whatever replay cannot re-derive — the created
// executions of an Advance, the model version of an instantiation,
// proposal or switch, the post-move token-state mirrors
// (State/Current/CompletedAt). Policy decisions and action dispatch
// are NOT journaled; they are side effects of the first life only. The
// instance journal is the only durable history of instance events:
// nothing else mirrors them.
//
// Models are shared, immutable and addressed by digest. The runtime
// keeps one table of model versions (models.go), keyed by a digest of
// the version's content — URI, version and body — and every instance
// and pending proposal points at its version's entry, which holds the
// model and its prepared summary cache. Records name a version by its
// digest. Its body reaches the instance journal as a RecModel record,
// which the sink writes as a shared record, ahead of the first record
// naming the version since it entered the table; a fold writes the
// body of every version in the table once, at the head of the snapshot
// file, and a snapshot record carries a body itself only when its
// version entered the table after the head was chosen. A version
// leaves the table with its last reference, and a later use writes its
// body again. The invariant: every digest a record names resolves
// from the snapshot head or from an earlier record of the files replay
// reads. It holds because replay skips every record at or below its
// instance's fold boundary, so the records it applies were either
// checked for a durable body after the fold chose its head, or were
// built by a verb whose reference put the version into that head.
// Replay applies shared records as barriers across its parallel lanes,
// resolves digests before it publishes an instance, and interns the
// inline models of data dirs written before the table.
//
// Ordering: each verb builds its record without touching the instance,
// emits it while the mutated instance's lock is held, and applies it
// only after the sink acknowledged it. The journal's per-instance
// record order is therefore exactly the order a live reader could have
// observed — and because the sink only acknowledges durable records,
// no reader ever observes state that a crash could take back.
// Cross-instance order in the journal is arbitrary, as instances share
// no state.
//
// Replay: on restart, stream every record through ApplyJournal (journal
// order per instance, shared records in journal order with respect to
// all) and close with FinishRecovery. The live commit applies its own
// record through the same appliers (replayRecord, and newInstance plus
// publish for Instantiate), so replay rebuilds everything the live path
// maintains by running the same code: token positions, event histories
// (ring truncation applied with the new config), executions, pending
// proposals, the resource/model/invocation indexes, the monotonic id
// counters, and every incremental counter — deviations, failed steps,
// pending invocations, per-phase entered/residence stats — plus the
// cockpit aggregate.
//
// Failure semantics: unacknowledged means absent. If the sink errors,
// the record is never applied — no event, execution, index entry or
// aggregate change stays in memory — the caller gets the error,
// dispatch does not happen, and the append-error
// counter surfaces on the admin endpoint. The only traces are consumed
// instance and invocation ids, which leave gaps. A sink that wrote a
// record's bytes before failing (a failed flush or fsync) can still
// replay that record after a restart: the store does not yet truncate
// such a tail. See journal.go.
package runtime

import (
	"context"
	"errors"
	"fmt"
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

// DefaultShards is the instance-table stripe count when Config.Shards
// is zero. The same count stripes the secondary indexes.
const DefaultShards = 16

// Config assembles a Runtime.
type Config struct {
	Registry *actionlib.Registry // action types and implementations; required
	Invoker  Invoker             // action dispatch; nil = actions fail to dispatch
	Clock    vclock.Clock        // nil = wall clock
	Policy   Policy              // nil = allow everything
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
	// History is the archive store folds move ring-truncated events
	// into (nil = truncated events stay in RAM); see the package doc's
	// truncation section. The facade wires the instance journal's.
	History History
}

// shard is one stripe of the instance table. Its lock guards only
// membership — the id→instance map; instance state is guarded by each
// instance's own mutex.
type shard struct {
	mu        sync.RWMutex
	instances map[string]*instance
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
	pop     seqList     // every instance, in creation order (popindex.go)
	byRes   *uriIndex   // resource URI → instances
	byModel *uriIndex   // model URI → instances (provenance)
	models  *modelTable // shared model versions (models.go)

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
	spilledEvents   atomic.Int64 // truncated events still in a spill
	invGCed         atomic.Int64 // invocation-index entries garbage-collected

	// Population-index counters (see popindex.go).
	popOutOfOrder atomic.Int64 // population adds that landed below the tail
	popIndexed    atomic.Int64 // population queries, one list walk each
	// replaying is set by the first ApplyJournal and cleared by
	// FinishRecovery: while it is set, list adds append (popindex.go).
	replaying atomic.Bool

	// agg is the cockpit aggregate behind Aggregate (see aggregate.go).
	agg *aggregate

	// Persistence counters (see journal.go). recoveryStart is written
	// once (recoveryOnce makes that safe under parallel replay);
	// recovery is written by FinishRecovery after the appliers join,
	// before the runtime serves traffic.
	journalAppends   atomic.Int64 // records accepted by the Journal sink
	journalErrors    atomic.Int64 // records the sink failed to persist
	recoveredRecords atomic.Int64 // instance records applied by ApplyJournal
	recoveryDecode   atomic.Int64 // ns ApplyJournal spent decoding, all appliers
	recoveryApply    atomic.Int64 // ns ApplyJournal spent applying, all appliers
	recoveryOnce     sync.Once
	recoveryStart    time.Time
	recoveryRead     time.Duration // NoteReaderTime
	recoveryEnvelope time.Duration
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
		models:  newModelTable(),
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

// stamp numbers ev to follow the instance's history plus the events
// already built into evs, times it, and appends it to evs; callers
// hold in.mu. Nothing is applied: the events enter the instance only
// when their record commits (commitLocked). Seq numbering is derived
// from in.eventSeq, not the slice length, so it stays gapless across
// ring truncation.
func (r *Runtime) stamp(in *instance, evs []Event, ev Event) []Event {
	ev.Seq = in.eventSeq + len(evs) + 1
	ev.Time = r.clock.Now()
	return append(evs, ev)
}

// applyRecorded appends an already-stamped event and maintains every
// event-derived counter — event totals, deviations, the per-phase
// entered/residence stats — plus the ring truncation. It is the one
// place an event enters an instance, on the live commit and on journal
// replay alike, which is what makes replayed counters equal the live
// ones by construction. Callers hold in.mu (or own the instance
// exclusively).
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
	r.truncateRing(in)
}

// truncateRing enforces Config.MaxEventsInMemory: once the ring
// exceeds the cap by 25% its oldest events move to the spill, cutting
// the ring back down to the cap (amortizing the copy). Callers hold
// in.mu (or own the instance exclusively).
func (r *Runtime) truncateRing(in *instance) {
	max := r.cfg.MaxEventsInMemory
	if max <= 0 || len(in.events) <= max+max/4 {
		return
	}
	drop := len(in.events) - max
	in.spill = append(in.spill, in.events[:drop]...)
	kept := make([]Event, max)
	copy(kept, in.events[drop:])
	in.events = kept
	in.truncatedEvs += drop
	r.truncatedEvents.Add(int64(drop))
	r.spilledEvents.Add(int64(drop))
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
// owned by owner. The instance follows the model version model holds
// now: versions live once in the runtime's model table, shared by
// every instance that follows them and never edited, so later edits to
// the caller's model never affect the instance (light coupling). A
// version the table already holds costs a hash of model — no
// validation, copy or cache build. instBindings supplies
// instantiation-time parameter values per action URI; binding times are
// enforced.
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
	e, err := r.models.acquire(model)
	if err != nil {
		return Snapshot{}, err
	}
	return r.instantiate(e, ref, owner, instBindings)
}

// InstantiateShared is Instantiate for a model the caller never
// mutates — a stored version that is replaced, never edited, on
// redefinition. The table keeps model itself as the version's copy and
// finds it again by pointer, so instantiating a known model neither
// hashes nor copies it.
func (r *Runtime) InstantiateShared(model *core.Model, ref resource.Ref, owner string, instBindings map[string]map[string]string) (Snapshot, error) {
	if model == nil {
		return Snapshot{}, errors.New("runtime: nil model")
	}
	e, err := r.models.acquireShared(model)
	if err != nil {
		return Snapshot{}, err
	}
	return r.instantiate(e, ref, owner, instBindings)
}

// instantiate is the shared core of Instantiate and InstantiateShared;
// it takes over the caller's reference on e, which a failure releases.
func (r *Runtime) instantiate(e *modelEntry, ref resource.Ref, owner string, instBindings map[string]map[string]string) (_ Snapshot, err error) {
	defer func() {
		if err != nil {
			r.models.release(e)
		}
	}()
	model := e.model
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
	res := ref.Clone()
	rec := &JournalRecord{
		Op:          RecInstantiate,
		Instance:    fmt.Sprintf("li-%06d", seq),
		Seq:         seq,
		ModelDigest: e.digest,
		Resource:    &res,
		Owner:       owner,
		CreatedAt:   r.clock.Now(),
		Unresolved:  r.unresolvedActions(model, ref.Type),
		Bindings:    cloneBindings(instBindings),
		entry:       e,
	}
	rec.Events = []Event{{Seq: 1, Time: rec.CreatedAt, Kind: EventCreated, Actor: owner,
		Detail: fmt.Sprintf("model %q on %s (%s)", model.Name, ref.URI, ref.Type)}}

	// Journal before building and publishing: a failed append leaves
	// nothing to undo. The shared instPub lock keeps the append→publish
	// window atomic with respect to snapshot folding (see snapshot.go).
	r.instPub.RLock()
	defer r.instPub.RUnlock()
	if err := r.journal(rec); err != nil {
		return Snapshot{}, err
	}
	in, err := r.newInstance(rec)
	if err != nil {
		return Snapshot{}, err
	}
	// Snapshot while the instance is still private, so no lock is needed.
	snap := in.snapshot()
	if err := r.publish(in); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// unresolvedActions lists, sorted, the action types model references
// that have no implementation for the resource type.
func (r *Runtime) unresolvedActions(model *core.Model, resType string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, p := range model.Phases {
		for _, call := range p.Actions {
			if seen[call.URI] {
				continue
			}
			seen[call.URI] = true
			if _, err := r.cfg.Registry.Resolve(call.URI, resType); err != nil {
				out = append(out, call.URI)
			}
		}
	}
	sort.Strings(out)
	return out
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

// Count reports the live instance population: the population list's
// length, with no instance lock and no copying.
func (r *Runtime) Count() int { return r.pop.len() }

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

// ByResource returns snapshots of every instance running on the given
// URI, in creation order — several lifecycles on one URI are
// explicitly legal (§IV.B). One walk of the resource's list:
// O(matches), not O(instances). An instance's resource never changes,
// so no candidate is re-checked.
func (r *Runtime) ByResource(uri string) []Snapshot {
	l, _ := r.byRes.get(uri)
	var out []Snapshot
	for refs := range l.walk(0, walkBatch) {
		for _, in := range refs {
			in.mu.Lock()
			out = append(out, in.snapshot())
			in.mu.Unlock()
		}
	}
	return out
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
	rec := &JournalRecord{Op: RecAnnotate, Instance: instID,
		Events: r.stamp(in, nil, Event{Kind: EventAnnotated, Actor: actor, Detail: note, Phase: in.current})}
	err := r.commitLocked(in, rec)
	in.mu.Unlock()
	return err
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
	for _, p := range in.model.model.Phases {
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
	return r.commitLocked(in, &JournalRecord{
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
	// Models reports the shared model table (see models.go).
	Models ModelTableStats `json:"model_table"`
	// EventsInMemory is the total event count currently held in RAM —
	// rings plus the spills awaiting the next fold; EventsTruncated
	// counts events dropped from the rings by Config.MaxEventsInMemory
	// (spilled, then archived by folds).
	EventsInMemory  int64 `json:"events_in_memory"`
	EventsTruncated int64 `json:"events_truncated"`
	// PopulationIndex reports the creation-ordered lists behind every
	// population read (see popindex.go).
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
	// accepted / failed since start. A failed record was never applied:
	// its caller got the error and memory does not hold the mutation
	// (see journal.go).
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
	st.Models = r.models.stats()
	st.PopulationIndex = PopIndexStats{
		Entries:           r.pop.len(),
		OutOfOrderInserts: r.popOutOfOrder.Load(),
		IndexedQueries:    r.popIndexed.Load(),
	}
	st.PopulationIndex.AggregateDueHeap, st.PopulationIndex.AggregateRewinds = r.aggStats()
	st.InvocationsGCed = r.invGCed.Load()
	st.EventsTruncated = r.truncatedEvents.Load()
	st.EventsInMemory = r.totalEvents.Load() - st.EventsTruncated + r.spilledEvents.Load()
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
