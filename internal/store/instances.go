package store

import (
	"fmt"
	"os"
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
// emits); this type owns the entry framing, the replay streaming and
// the snapshot source. Writes go through the same flush-combining
// appender as the definitions journal, without an onCommit: the runtime
// applies its in-memory mutation itself, under the instance lock,
// before the append.
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
// Lifecycle: construct, Replay (or ReplayParallel) exactly once —
// which opens the journal for appending — then Append freely, Close
// once. Append returns only once the record is durable at the
// configured level — write(2)-deep by default (survives a killed
// process), fsync-deep with Sync — which is the write-through contract
// the runtime's Journal sink relies on.
type Instances struct {
	appender
	opts InstancesOptions

	// source is set once, under foldMu, before the collection sees
	// concurrent traffic (SetSnapshotSource), which is also when the
	// background folder starts.
	source func(emit func(id string, data []byte) error) error
	folds  *folder

	// stopScrub halts the background scrubber (nil when ScrubInterval
	// is zero); set by ReplayParallel, called by Close.
	stopScrub func()

	replayed atomic.Int64
}

// OpenInstances builds the instance collection on its own journal
// directory under dir (created if missing), with segment rotation per
// opts.
func OpenInstances(dir string, opts InstancesOptions) (*Instances, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create instances dir: %w", err)
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = 1
	}
	c := &Instances{opts: opts, folds: newFolder()}
	c.appender = appender{
		dir:           dir,
		sync:          opts.Sync,
		segmentMax:    opts.SegmentMaxBytes,
		snapshotEvery: uint64(opts.SnapshotEvery),
		onSeal: func() {
			if c.folds.running() {
				c.folds.poke()
			}
		},
	}
	return c, nil
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
	idKey := func(e Entry) string { return e.ID }
	err := c.open(c.opts.Integrity, func() (segReplay, error) {
		if workers <= 1 {
			return replaySegmented(c.dir, idKey, apply)
		}
		fo := newFanOut(workers, apply)
		sr, readErr := replaySegmented(c.dir, idKey, func(e Entry) error {
			return fo.dispatch(e.ID, e)
		})
		if finishErr := fo.finish(); readErr == nil {
			readErr = finishErr
		}
		return sr, readErr
	})
	if err != nil {
		return err
	}
	if iv := c.opts.Integrity.ScrubInterval; iv > 0 {
		c.stopScrub = scrubLoop(iv, c.opts.Integrity.ScrubBytesPerTick, c.Scrub)
	}
	return nil
}

// Replayed reports how many records the startup replay streamed
// (snapshot records plus unfolded tail records — skipped folded
// duplicates are not counted).
func (c *Instances) Replayed() int64 { return c.replayed.Load() }

// ReplayStats reports what the startup replay streamed per source.
func (c *Instances) ReplayStats() ReplayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replay
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
	if source == nil {
		return
	}
	c.foldMu.Lock()
	c.source = source
	c.foldMu.Unlock()
	// Fold errors are counted in FoldErrors and retried on the next seal.
	c.folds.start(func() { c.Fold() })
}

// Append commits one mutation record for the given instance and
// returns once it is durable (see appender.Append). The outcome is
// reported to OnAppendResult.
func (c *Instances) Append(id string, data []byte) error {
	err := c.append(id, data)
	if c.opts.OnAppendResult != nil {
		c.opts.OnAppendResult(err)
	}
	return err
}

func (c *Instances) append(id string, data []byte) error {
	if id == "" {
		return fmt.Errorf("store: %s: empty instance id", instancesRepo)
	}
	if !c.opened.Load() {
		return fmt.Errorf("store: %s: append before Replay", instancesRepo)
	}
	_, err := c.appender.Append(Entry{Repo: instancesRepo, Op: OpAppend, ID: id, Data: data}, nil)
	return err
}

// Fold compacts every segment sealed before the call: the snapshot
// source emits one record per live instance, each stamped with its
// fold boundary, into a new snapshot file; the folded segments are
// then deleted. Appends proceed concurrently — the boundary sampling
// under each instance's lock is what keeps the overlap exact. Returns
// an error when no snapshot source is wired.
func (c *Instances) Fold() error {
	c.foldMu.Lock()
	source := c.source
	c.foldMu.Unlock()
	if source == nil {
		return fmt.Errorf("store: %s: fold without a snapshot source", instancesRepo)
	}
	return c.fold(func(sj *Journal) (func(), error) {
		return nil, source(func(id string, data []byte) error {
			if id == "" {
				return fmt.Errorf("store: %s: snapshot record with empty id", instancesRepo)
			}
			// The fold boundary: the journal sequence current while the
			// instance's lock is held (the source's contract). Records
			// for this id at or below it are exactly the ones the
			// emitted state reflects.
			boundary, err := c.lastSeq()
			if err != nil {
				return err
			}
			return sj.writeRaw(Entry{Seq: boundary, Repo: instancesRepo, Op: OpAppend, ID: id, Data: data})
		})
	})
}

// Compact is Seal + Fold: rotate the active segment and fold all
// history into the snapshot. Writers are never excluded.
func (c *Instances) Compact() error {
	if err := c.Seal(); err != nil {
		return err
	}
	return c.Fold()
}

// Stats reports the collection's health in the engine-stats shape the
// admin endpoint already speaks.
func (c *Instances) Stats() EngineStats { return c.stats("instances-journal") }

// Close stops the scrubber and the folder, then closes the appender.
// Every Append acknowledged before Close stays durable; Close is
// idempotent.
func (c *Instances) Close() error {
	if c.stopScrub != nil {
		c.stopScrub()
	}
	c.folds.stop()
	return c.appender.Close()
}
