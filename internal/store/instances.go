package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// instancesRepo is the Entry.Repo name framing instance records.
const instancesRepo = "instances"

// InstancesOptions tune the instance collection's journal.
type InstancesOptions struct {
	// Sync upgrades durability from write(2) per append to one fsync
	// per combined flush.
	Sync bool
	// SegmentMaxBytes seals the active segment once it grows past this
	// size (0 = no automatic rotation). Sealed segments are folded into
	// per-instance snapshot records once a snapshot source is wired
	// (SetSnapshotSource), keeping restart replay bounded.
	SegmentMaxBytes int64
	// SnapshotEvery folds once this many sealed segments accumulate
	// (0 = every rotation).
	SnapshotEvery int
	// OnAppendResult, when set, observes the outcome of every Append
	// (nil error = durably acknowledged) — the health signal the
	// resilience layer watches. Called on the write path; must be O(1)
	// and must not call back into the collection.
	OnAppendResult func(error)
	// Integrity tunes corruption detection: record framing, quarantine
	// mode, the background scrubber (see IntegrityOptions).
	Integrity IntegrityOptions
}

// Instances is the lifecycle-instance collection of the data tier: an
// append-only feed of opaque, typed mutation records keyed by instance
// id, framed as journal entries in the same JSONL format (and with the
// same segment rotation, snapshot folding and torn-tail recovery) as
// every other journal. The runtime owns the record schema
// (runtime.JournalRecord, including the RecSnapshot records folding
// emits); this type owns the entry framing/codec, the replay
// streaming, the write path and the segment lifecycle.
//
// The collection runs on its own journal directory — not as a part of
// the definitions Store — because instance records are emitted while
// the mutated instance's lock is held; routing them through
// Store.commit would order that lock against store-wide machinery it
// must stay independent of. And unlike repositories, instance history
// is replayed streaming and then discarded — there is no in-memory
// copy to rewrite a compacted journal from, which is why folding asks
// the runtime for per-instance snapshot records instead.
//
// # Folding
//
// When the active segment outgrows SegmentMaxBytes it is sealed (an
// O(1) rename/create under the appender mutex — writers never wait on
// compaction) and the background folder asks the snapshot source —
// wired by the facade to runtime.EmitSnapshots — for one encoded
// snapshot record per live instance. Each is written to the new
// snapshot file with a fold boundary: the journal sequence current at
// emit time, sampled while the instance's lock is held, so the record
// provably reflects every journaled mutation of that instance at or
// below the boundary and none above it. Replay streams the snapshot
// first, then the unfolded tail segments, skipping tail records at or
// below their instance's boundary — the exact set the snapshot
// already covers. Restart cost is therefore O(live instances + tail),
// no longer O(every record ever written).
//
// The default disk write path (OpenInstances) is a flush-combining
// appender rather than the group-commit Engine: writers encode into
// the shared buffered writer under a mutex, yield once so concurrent
// appenders can join, and the first writer back claims one flush (+
// one fsync in durable mode) covering everyone — the group-commit
// batching effect without the channel round trips, which on small
// records cost more than the write itself. The Engine's per-entry
// onCommit ordering is not needed here because the runtime applies
// its in-memory mutation itself, under the instance lock, before the
// append. NewInstances still accepts any Engine for the in-memory
// mode and future multi-backend deployments.
//
// Lifecycle: construct, Replay (or ReplayParallel) exactly once —
// which opens the journal for appending — then Append freely, Close
// once. Append returns only once the record is durable at the
// configured level — write(2)-deep by default (survives a killed
// process), fsync-deep with Sync — which is the write-through contract
// the runtime's Journal sink relies on.
type Instances struct {
	engine Engine // generic mode; nil when running the journal fast path

	// Journal fast path. mu guards j, flushedSeq and closed; opened is
	// atomic so Stats can read it without the lock.
	dir    string
	opts   InstancesOptions
	mu     sync.Mutex
	j      *Journal
	sf     *segFiles
	opened atomic.Bool
	closed bool

	// Folding. foldMu serializes folds; source is set once, before the
	// collection sees concurrent traffic (SetSnapshotSource), which is
	// also when the background folder starts.
	foldMu sync.Mutex
	source func(emit func(id string, data []byte) error) error
	folds  *folder

	// stopScrub halts the background scrubber (nil when ScrubInterval
	// is zero); set by ReplayParallel, called by Close.
	stopScrub func()

	flushedSeq  uint64
	appends     atomic.Uint64
	flushes     atomic.Uint64
	syncs       atomic.Uint64
	maxBatch    atomic.Int64
	replayed    atomic.Int64
	replayStats ReplayStats

	// waiters gauges appenders currently inside Append — the
	// flush-combining path has no queue channel, so in-flight count is
	// its saturation signal for admission control.
	waiters atomic.Int64
}

// NewInstances wraps a generic Engine as the instance collection — the
// in-memory mode and the seam for alternative backends.
func NewInstances(engine Engine) *Instances {
	return &Instances{engine: engine}
}

// OpenInstances builds the instance collection on its own journal
// directory under dir (created if missing), using the flush-combining
// write path with segment rotation per opts.
func OpenInstances(dir string, opts InstancesOptions) (*Instances, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create instances dir: %w", err)
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 1
	}
	return &Instances{
		dir:   dir,
		opts:  opts,
		folds: newFolder(),
	}, nil
}

// Replay streams every previously committed record through fn in
// commit order — per-instance, that is mutation order, with the
// instance's snapshot record (if a fold ran) first and only the
// uncovered tail records after it. Like Engine.Replay it must be
// called exactly once, before any Append, truncates a torn active
// tail so the next append starts on a record boundary, and treats a
// missing or empty directory as empty.
func (c *Instances) Replay(fn func(id string, data []byte) error) error {
	return c.ReplayParallel(1, fn)
}

// ReplayParallel is Replay sharded across workers goroutines by
// instance id: records of different instances are independent, so
// each worker applies its ids' records in order while the reader
// streams ahead. fn must be safe for concurrent calls on different
// ids (runtime.ApplyJournal is); per-id call order is exactly the
// sequential replay order. workers <= 1 degrades to the plain
// sequential replay.
func (c *Instances) ReplayParallel(workers int, fn func(id string, data []byte) error) error {
	apply := func(e Entry) error {
		if e.Op != OpAppend {
			return fmt.Errorf("store: %s: replay unknown op %q", instancesRepo, e.Op)
		}
		c.replayed.Add(1)
		return fn(e.ID, e.Data)
	}
	if c.engine != nil {
		return c.engine.Replay(apply)
	}

	quarantined, corrupt := 0, 0
	if c.opts.Integrity.Quarantine {
		var err error
		quarantined, corrupt, err = preVerify(c.dir, c.opts.Integrity.OnCorrupt)
		if err != nil {
			return err
		}
	}
	var sr segReplay
	var err error
	if workers <= 1 {
		sr, err = replaySegmented(c.dir, func(e Entry) string { return e.ID }, apply)
	} else {
		sr, err = c.replayFanOut(workers, apply)
	}
	if err != nil {
		return err
	}
	if err := truncateTorn(c.dir, sr.active.good); err != nil {
		return err
	}
	j, err := openJournal(filepath.Join(c.dir, journalName), sr.lastSeq)
	if err != nil {
		return err
	}
	j.adoptReplay(sr.active)
	c.mu.Lock()
	c.j = j
	c.sf = newSegFiles(c.dir, sr.state)
	c.sf.adoptIntegrity(sr, quarantined, corrupt, c.opts.Integrity.OnCorrupt)
	c.flushedSeq = sr.lastSeq
	c.replayStats = sr.stats
	c.mu.Unlock()
	c.opened.Store(true)
	if iv := c.opts.Integrity.ScrubInterval; iv > 0 {
		c.stopScrub = scrubLoop(iv, c.opts.Integrity.ScrubBytesPerTick, c.Scrub)
	}
	return nil
}

// Scrub runs one bounded background-verification tick over the
// collection's sealed segments and snapshot (see scrub.go). Zeros for
// the generic-engine mode without durable files.
func (c *Instances) Scrub(maxBytes int64) ScrubResult {
	if c.engine != nil {
		return c.engine.Scrub(maxBytes)
	}
	c.mu.Lock()
	sf, closed := c.sf, c.closed
	c.mu.Unlock()
	if sf == nil || closed {
		return ScrubResult{}
	}
	return sf.scrubTick(maxBytes)
}

// replayFanOut drives the segmented replay with per-id-sharded worker
// goroutines (the shared fanOut, also behind Store.LoadParallel).
func (c *Instances) replayFanOut(workers int, apply func(Entry) error) (segReplay, error) {
	fo := newFanOut(workers, apply)
	sr, readErr := replaySegmented(c.dir, func(e Entry) string { return e.ID }, func(e Entry) error {
		return fo.dispatch(e.ID, e)
	})
	finishErr := fo.finish()
	if readErr != nil {
		return sr, readErr
	}
	return sr, finishErr
}

// Replayed reports how many records the startup replay streamed
// (snapshot records plus unfolded tail records — skipped folded
// duplicates are not counted).
func (c *Instances) Replayed() int64 { return c.replayed.Load() }

// ReplayStats reports what the startup replay streamed per source.
func (c *Instances) ReplayStats() ReplayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replayStats
}

// SetSnapshotSource wires the per-instance snapshot provider folding
// needs — the facade passes runtime.EmitSnapshots — and starts the
// background folder. The source must call emit once per live instance
// *while holding that instance's mutation lock*: the collection
// samples the fold boundary inside emit, and the lock is what
// guarantees the emitted state reflects exactly the instance's records
// at or below it. Call once, after Replay; folding is disabled until
// a source exists (segments still rotate and accumulate).
func (c *Instances) SetSnapshotSource(source func(emit func(id string, data []byte) error) error) {
	if c.engine != nil || source == nil {
		return
	}
	c.foldMu.Lock()
	c.source = source
	c.foldMu.Unlock()
	// Fold errors are counted in FoldErrors and retried on the next seal.
	c.folds.start(func() { c.Fold() })
}

// Append commits one mutation record for the given instance and
// returns once it is durable. On the journal fast path the record is
// written under the mutex, then — after one scheduler yield that lets
// concurrent appenders add theirs — the first appender back claims a
// single flush (+fsync when durable) covering every record written so
// far; later claimants see their sequence already flushed and return
// without a syscall. A flush that leaves the active segment past
// SegmentMaxBytes seals it in place — an O(1) rename/create — and
// pokes the folder.
func (c *Instances) Append(id string, data []byte) error {
	c.waiters.Add(1)
	err := c.append(id, data)
	c.waiters.Add(-1)
	if c.opts.OnAppendResult != nil {
		c.opts.OnAppendResult(err)
	}
	return err
}

// Waiters is the number of appenders currently inside Append — the
// collection's queue-depth analogue.
func (c *Instances) Waiters() int { return int(c.waiters.Load()) }

func (c *Instances) append(id string, data []byte) error {
	if id == "" {
		return fmt.Errorf("store: %s: empty instance id", instancesRepo)
	}
	if c.engine != nil {
		_, err := c.engine.Append(Entry{Repo: instancesRepo, Op: OpAppend, ID: id, Data: data}, nil)
		return err
	}
	c.mu.Lock()
	if c.closed || c.j == nil {
		c.mu.Unlock()
		if !c.opened.Load() {
			return fmt.Errorf("store: %s: append before Replay", instancesRepo)
		}
		return ErrClosed
	}
	seq, err := c.j.writeEntry(Entry{Repo: instancesRepo, Op: OpAppend, ID: id, Data: data})
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.appends.Add(1)
	runtime.Gosched() // let concurrent appenders join this flush
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flushedSeq >= seq {
		// A concurrent appender's flush (or Close's final flush)
		// covered us.
		return nil
	}
	if c.closed || c.j == nil {
		return ErrClosed
	}
	if err := c.j.Flush(); err != nil {
		return err
	}
	if c.opts.Sync {
		if err := c.j.Sync(); err != nil {
			return err
		}
		c.syncs.Add(1)
	}
	if batch := int64(c.j.Seq() - c.flushedSeq); batch > c.maxBatch.Load() {
		c.maxBatch.Store(batch)
	}
	c.flushedSeq = c.j.Seq()
	c.flushes.Add(1)
	c.maybeRotateLocked()
	return nil
}

// maybeRotateLocked seals the active segment once it outgrew the
// configured bound; callers hold c.mu. Everything written so far is
// flushed and fsynced by the seal, so flushedSeq advances to the full
// sequence — in-flight appenders waiting on this flush are covered.
func (c *Instances) maybeRotateLocked() {
	if c.opts.SegmentMaxBytes <= 0 || c.j.Size() < c.opts.SegmentMaxBytes {
		return
	}
	nj, err := c.sf.seal(c.j)
	c.j = nj
	if err != nil {
		return
	}
	c.flushedSeq = c.j.Seq()
	if c.folds.running() && c.sf.sealedCount() >= uint64(c.opts.SnapshotEvery) {
		c.folds.poke()
	}
}

// Seal rotates the active segment now (no-op when empty) — the manual
// hook benchmarks and Compact use.
func (c *Instances) Seal() error {
	if c.engine != nil {
		return c.engine.Seal()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.j == nil {
		return ErrClosed
	}
	nj, err := c.sf.seal(c.j)
	c.j = nj
	if err == nil {
		c.flushedSeq = c.j.Seq()
	}
	return err
}

// Fold compacts every segment sealed before the call: the snapshot
// source emits one record per live instance, each stamped with its
// fold boundary, into a new snapshot file; the folded segments are
// then deleted. Appends proceed concurrently — the boundary sampling
// under each instance's lock is what keeps the overlap exact. Returns
// an error when no snapshot source is wired.
func (c *Instances) Fold() error {
	if c.engine != nil {
		return c.engine.Fold(nil)
	}
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	if c.source == nil {
		return fmt.Errorf("store: %s: fold without a snapshot source", instancesRepo)
	}
	c.mu.Lock()
	if c.closed || c.j == nil {
		c.mu.Unlock()
		return ErrClosed
	}
	covers := c.sf.sealedHi
	hwm := c.j.Seq()
	sf := c.sf
	c.mu.Unlock()
	return sf.fold(covers, hwm, func(sj *Journal) error {
		return c.source(func(id string, data []byte) error {
			if id == "" {
				return fmt.Errorf("store: %s: snapshot record with empty id", instancesRepo)
			}
			// The fold boundary: the journal sequence current while the
			// instance's lock is held (the source's contract). Records
			// for this id at or below it are exactly the ones the
			// emitted state reflects.
			c.mu.Lock()
			if c.closed || c.j == nil {
				c.mu.Unlock()
				return ErrClosed
			}
			boundary := c.j.Seq()
			c.mu.Unlock()
			return sj.writeRaw(Entry{Seq: boundary, Repo: instancesRepo, Op: OpAppend, ID: id, Data: data})
		})
	})
}

// Compact is Seal + Fold: rotate the active segment and fold all
// history into the snapshot. Writers are never excluded.
func (c *Instances) Compact() error {
	if c.engine != nil {
		return nil
	}
	if err := c.Seal(); err != nil {
		return err
	}
	return c.Fold()
}

// Stats reports the collection's health in the engine-stats shape the
// admin endpoint already speaks: appends, combined flushes as batches,
// fsyncs, the largest combined batch, and the segment rotation / fold
// / replay counters.
func (c *Instances) Stats() EngineStats {
	if c.engine != nil {
		return c.engine.Stats()
	}
	st := EngineStats{
		Engine:   "instances-journal",
		State:    StateRunning,
		Appends:  c.appends.Load(),
		Batches:  c.flushes.Load(),
		Syncs:    c.syncs.Load(),
		MaxBatch: int(c.maxBatch.Load()),
	}
	if !c.opened.Load() {
		st.State = StateClosed
	}
	c.mu.Lock()
	if c.j != nil {
		st.LastSeq = c.j.Seq()
	}
	if c.closed {
		st.State = StateClosed
	}
	sf, replay := c.sf, c.replayStats
	c.mu.Unlock()
	if sf != nil {
		sf.statsInto(&st, replay)
	}
	return st
}

// Close flushes and closes the journal. Every Append acknowledged
// before Close stays durable; Close is idempotent.
func (c *Instances) Close() error {
	if c.engine != nil {
		return c.engine.Close()
	}
	if c.stopScrub != nil {
		c.stopScrub()
	}
	c.folds.stop()
	// A straggler fold could still be writing; let it finish before the
	// appender goes away.
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.j == nil {
		c.closed = true
		return nil
	}
	c.closed = true
	seq := c.j.Seq()
	err := c.j.Flush()
	if err == nil && c.opts.Sync {
		err = c.j.Sync()
	}
	if closeErr := c.j.Close(); err == nil {
		err = closeErr
	}
	if err == nil {
		c.flushedSeq = seq // in-flight appenders' records made it out
	}
	c.j = nil
	return err
}
