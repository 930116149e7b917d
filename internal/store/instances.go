package store

import (
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
)

// instancesRepo is the Entry.Repo name framing instance records.
const instancesRepo = "instances"

// opShared frames a shared record: one that records of any instance
// may depend on (the runtime's model bodies), keyed by its own key
// rather than an instance id. Replay applies it after every entry
// written before it and before every entry written after it — a
// barrier across the parallel replay's lanes — and no fold boundary
// ever skips it. A snapshot carries shared records at its head.
const opShared Op = "shared"

// InstancesOptions tune the instance collection's journal.
type InstancesOptions struct {
	// FS is the file system the journal lives on; nil means the
	// operating system's.
	FS FS
	// Sync upgrades durability from write(2) per append to one fsync
	// per combined flush.
	Sync bool
	// SegmentMaxBytes seals the active segment once it grows past this
	// size (0 = no automatic rotation). Sealed segments are folded into
	// per-instance snapshot records once a snapshot source is wired
	// (SetSnapshotSource), keeping restart replay bounded.
	SegmentMaxBytes int64
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
// emits); this type owns the entry framing, the replay streaming, the
// snapshot source and the history archives. Writes go through the same
// flush-combining appender as the definitions journal, without an
// onCommit: the runtime applies its in-memory mutation itself, under
// the instance lock, once the append has committed.
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
// # History archives
//
// The journal is the only durable history of instance events, and the
// runtime's snapshot images carry only each instance's in-memory ring
// (and whatever it truncated since the last fold). During a fold the
// snapshot source hands the truncated events to ArchiveHistory, which
// writes them once, as one batch per instance, into an immutable
// CRC-summed archive file under the install protocol archive.go
// describes. Every snapshot carries a ref line for every archive of
// the collection, so open reconciles and the scrubber verifies them
// like any other archive; ReadHistory streams one back, verified, for
// the timeline.
//
// Lifecycle: construct, Replay (or ReplayParallel) exactly once —
// which creates the directory if missing and opens the journal for
// appending — then Append freely, Close once. Append returns only once
// the record is durable at the configured level — write(2)-deep by default (survives a killed
// process), fsync-deep with Sync — which is the write-through contract
// the runtime's Journal sink relies on.
type Instances struct {
	appender
	opts InstancesOptions

	// source is set once, under foldMu, before the collection sees
	// concurrent traffic (SetSnapshotSource), which is also when the
	// background folder starts.
	source SnapshotSource
	folds  *folder

	// histMu guards the history archive refs: hist, every archive an
	// installed snapshot references (adopted at open), and pending, the
	// archives the running fold wrote — referenced only once its
	// snapshot installs.
	histMu  sync.Mutex
	hist    []ArchiveRef
	pending []ArchiveRef

	// stopScrub halts the background scrubber (nil when ScrubInterval
	// is zero); set by ReplayParallel, called by Close.
	stopScrub func()

	replayed atomic.Int64
}

// SnapshotSource produces a fold's snapshot through w: shared records
// at the head, then one Emit per live instance, while holding that
// instance's mutation lock (see SetSnapshotSource); it may archive
// history through ArchiveHistory before emitting. installed, when
// non-nil, runs once the snapshot is durably installed — the point
// from which the state the archives hold may leave memory.
type SnapshotSource func(w *SnapshotWriter) (installed func(), err error)

// OpenInstances builds the instance collection on its own journal
// directory dir on opts.FS, with segment rotation per opts; Replay
// opens it.
func OpenInstances(dir string, opts InstancesOptions) *Instances {
	c := &Instances{opts: opts, folds: newFolder()}
	c.appender = appender{
		fs:         orOS(opts.FS),
		dir:        dir,
		sync:       opts.Sync,
		segmentMax: opts.SegmentMaxBytes,
		onSeal: func() {
			if c.folds.running() {
				c.folds.poke()
			}
		},
	}
	return c
}

// Replay streams every previously committed record through fn in
// commit order — per-instance, that is mutation order, with the
// instance's snapshot record (if a fold ran) first and only the
// uncovered tail records after it. Like Store.Load it must be called
// exactly once, before any Append, truncates a torn active tail so the
// next append starts on a record boundary, and treats a missing or
// empty directory as empty. data is valid only during the
// fn call that receives it, and has not been checked to be JSON:
// decoding it is fn's job, and an error fn returns fails the replay
// with the file and line of the record (RecordError).
func (c *Instances) Replay(fn func(id string, data []byte) error) error {
	return c.ReplayParallel(1, fn)
}

// ReplayParallel is Replay sharded across workers goroutines by
// instance id: records of different instances are independent, so
// each worker applies its ids' records in order while the reader
// streams ahead. fn must be safe for concurrent calls on different
// ids (runtime.ApplyJournal is); per-id call order is exactly the
// sequential replay order. workers <= 1 degrades to the plain
// sequential replay. data follows Replay's rule: valid only during
// the call.
func (c *Instances) ReplayParallel(workers int, fn func(id string, data []byte) error) error {
	apply := c.applier(fn)
	err := c.open(c.opts.Integrity, func(st segState) (sr segReplay, err error) {
		defer func() { c.hist = sr.refs }()
		if workers <= 1 {
			return replaySegmented(c.fs, c.dir, st, entryID, apply, nil)
		}
		fo := newFanOut(workers, apply)
		sr, err = replaySegmented(c.fs, c.dir, st, entryID, func(e Entry) error {
			if e.Op == opShared {
				if err := fo.quiesce(); err != nil {
					return err
				}
				return apply(e)
			}
			return fo.dispatch(e.ID, e)
		}, nil)
		if finishErr := fo.finish(); err == nil {
			err = finishErr
		}
		return sr, err
	})
	if err != nil {
		return err
	}
	if iv := c.opts.Integrity.ScrubInterval; iv > 0 {
		c.stopScrub = scrubLoop(iv, c.Scrub)
	}
	return nil
}

// FsckInstances checks the instance journal directory dir (see Fsck)
// and streams its records through fn as Replay would, without opening
// the journal: a record fn fails is a corrupt verdict naming its file,
// line and offset, which repair quarantines.
func FsckInstances(dir string, repair bool, fn func(id string, data []byte) error) (FsckReport, error) {
	return fsck(osFS{}, dir, repair, entryID, (&Instances{}).applier(fn))
}

// entryID buckets an instance-journal entry by its instance id.
func entryID(e Entry) string { return e.ID }

// applier hands fn the records replay streams: instance records and
// shared records, counted; archive refs are the replay driver's.
func (c *Instances) applier(fn func(id string, data []byte) error) func(Entry) error {
	return func(e Entry) error {
		switch e.Op {
		case opArchiveRef:
			return nil // collected by the replay driver (sr.refs)
		case OpAppend:
			c.replayed.Add(1)
		case opShared:
		default:
			return fmt.Errorf("store: %s: replay unknown op %q", instancesRepo, e.Op)
		}
		return fn(e.ID, e.Data)
	}
}

// Replayed reports how many instance records the startup replay
// streamed (snapshot records plus unfolded tail records — skipped
// folded duplicates and shared records are not counted).
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
func (c *Instances) SetSnapshotSource(source SnapshotSource) {
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
// returns once it is durable (see appender.write).
func (c *Instances) Append(id string, data []byte) error {
	return c.append(OpAppend, id, data)
}

// AppendShared commits one shared record under key (see opShared).
func (c *Instances) AppendShared(key string, data []byte) error {
	return c.append(opShared, key, data)
}

func (c *Instances) append(op Op, id string, data []byte) error {
	if id == "" {
		return fmt.Errorf("store: %s: empty instance id", instancesRepo)
	}
	if !c.opened.Load() {
		return fmt.Errorf("store: %s: append before Replay", instancesRepo)
	}
	_, err := c.write(Entry{Repo: instancesRepo, Op: op, ID: id, Data: data}, nil)
	return err
}

// Fold compacts every segment sealed before the call: the snapshot
// source writes the shared records it must keep at the head of a new
// snapshot file, then one record per live instance, each stamped with
// its fold boundary; the folded segments are then deleted. Appends
// proceed concurrently — the boundary sampling under each instance's
// lock is what keeps the overlap exact. The snapshot also references
// every history archive, the ones the source wrote during this fold
// included. Returns an error when no snapshot source is wired.
func (c *Instances) Fold() error {
	c.foldMu.Lock()
	source := c.source
	c.foldMu.Unlock()
	if source == nil {
		return fmt.Errorf("store: %s: fold without a snapshot source", instancesRepo)
	}
	return c.fold(func(sj *Journal) (func(), error) {
		c.histMu.Lock()
		c.pending = nil // a failed fold's archives: orphans the next open removes
		c.histMu.Unlock()
		installed, err := source(&SnapshotWriter{c: c, sj: sj})
		if err != nil {
			return nil, err
		}
		c.histMu.Lock()
		refs := append(slices.Clip(c.hist), c.pending...)
		written := len(c.pending)
		c.histMu.Unlock()
		for _, ref := range refs {
			data, err := json.Marshal(ref)
			if err != nil {
				return nil, err
			}
			if err := sj.writeRaw(Entry{Repo: instancesRepo, Op: opArchiveRef, Data: data}); err != nil {
				return nil, err
			}
		}
		return func() {
			c.histMu.Lock()
			c.hist = append(c.hist, c.pending[:written]...)
			c.pending = c.pending[written:]
			c.histMu.Unlock()
			if installed != nil {
				installed()
			}
		}, nil
	})
}

// SnapshotWriter is what a fold hands its snapshot source: the head
// for shared records, and the per-instance emit.
type SnapshotWriter struct {
	c       *Instances
	sj      *Journal
	emitted bool
}

// Head writes a shared record under key at the head of the snapshot;
// every Head precedes the first Emit.
func (w *SnapshotWriter) Head(key string, data []byte) error {
	if key == "" {
		return fmt.Errorf("store: %s: shared snapshot record with empty key", instancesRepo)
	}
	if w.emitted {
		return fmt.Errorf("store: %s: shared snapshot record %s after an instance record", instancesRepo, key)
	}
	return w.sj.writeRaw(Entry{Repo: instancesRepo, Op: opShared, ID: key, Data: data})
}

// Emit writes one instance's snapshot record; the source calls it
// while holding that instance's mutation lock.
func (w *SnapshotWriter) Emit(id string, data []byte) error {
	if id == "" {
		return fmt.Errorf("store: %s: snapshot record with empty id", instancesRepo)
	}
	w.emitted = true
	// The fold boundary: the journal sequence current while the
	// instance's lock is held (the source's contract). Records for this
	// id at or below it are exactly the ones the emitted state reflects.
	boundary, err := w.c.lastSeq()
	if err != nil {
		return err
	}
	return w.sj.writeRaw(Entry{Seq: boundary, Repo: instancesRepo, Op: OpAppend, ID: id, Data: data})
}

// ArchiveHistory writes batches — one per instance, opaque to the
// collection — as one immutable archive file, fsynced and renamed into
// place, and returns its number. Only the snapshot source calls it,
// during a fold: the archive is referenced from that fold's snapshot
// on, and an archive whose fold fails is an orphan the next open
// removes.
func (c *Instances) ArchiveHistory(batches iter.Seq2[string, []byte]) (uint64, error) {
	var entries []Entry
	for id, data := range batches {
		entries = append(entries, Entry{Repo: instancesRepo, Op: OpAppend, ID: id, Data: data})
	}
	c.mu.Lock()
	sf := c.sf
	c.mu.Unlock()
	if sf == nil {
		return 0, fmt.Errorf("store: %s: archive before Replay", instancesRepo)
	}
	ref, err := sf.Archive(entries)
	if err != nil {
		return 0, err
	}
	c.histMu.Lock()
	c.pending = append(c.pending, ref)
	c.histMu.Unlock()
	return ref.Archive, nil
}

// ReadHistory streams archive n's batches through fn in write order
// and verifies the file against the checksum, entry count and length
// its ref pins once fully read; any mismatch, or an archive no
// snapshot references, is ErrCorrupt.
func (c *Instances) ReadHistory(n uint64, fn func(id string, data []byte) error) error {
	c.mu.Lock()
	sf := c.sf
	c.mu.Unlock()
	if sf == nil {
		return fmt.Errorf("store: %s: read before Replay", instancesRepo)
	}
	sf.refMu.Lock()
	ref, ok := sf.refs[n]
	sf.refMu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s: unknown history %s", ErrCorrupt, instancesRepo, archiveName(n))
	}
	return readArchive(c.fs, c.dir, ref, func(e Entry) error { return fn(e.ID, e.Data) })
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

// Halt stops the background work — the scrubber and the folder,
// waiting out an in-flight fold — and leaves the journal as it is:
// nothing is flushed or closed, so the directory holds exactly what a
// killed process would leave behind. Crash tests halt a collection
// before reopening its directory; Close still releases it.
func (c *Instances) Halt() {
	if c.stopScrub != nil {
		c.stopScrub()
	}
	c.folds.stop()
}

// Close halts the background work, then closes the appender. Every
// Append acknowledged before Close stays durable; Close is idempotent.
func (c *Instances) Close() error {
	c.Halt()
	return c.appender.Close()
}
