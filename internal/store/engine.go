package store

import (
	"errors"
	"sync/atomic"
)

// Engine state names reported by EngineStats.State: an engine is
// running while it accepts appends, closed before it is opened and
// after Close.
const (
	StateRunning = "running"
	StateClosed  = "closed"
)

// ErrClosed is returned by Append once an engine is closed.
var ErrClosed = errors.New("store: engine closed")

// EngineStats is a point-in-time health/throughput snapshot of a
// storage engine, exposed over the admin API.
type EngineStats struct {
	// Engine names the implementation ("journal", "memory").
	Engine string `json:"engine"`
	// State is running or closed.
	State string `json:"state"`
	// LastSeq is the sequence number of the most recent committed entry.
	LastSeq uint64 `json:"last_seq"`
	// Appends counts entries committed since open.
	Appends uint64 `json:"appends"`
	// Batches counts combined flushes; Appends/Batches is the mean
	// number of entries one flush covered. For the memory engine
	// Batches == Appends.
	Batches uint64 `json:"batches"`
	// Syncs counts fsync calls (one per flush in durable mode).
	Syncs uint64 `json:"syncs"`
	// MaxBatch is the most entries one flush (+fsync) covered.
	MaxBatch int `json:"max_batch"`
	// Pending is the number of appenders in flight: inside Append and
	// not yet acknowledged.
	Pending int `json:"pending"`

	// Segment-rotation and snapshot-folding counters (zero for engines
	// without segments, like the memory engine).
	//
	// SealedSegments is the count of sealed segments not yet folded;
	// Rotations counts seals since open, Folds successful snapshot
	// folds, FoldErrors failed fold attempts, FoldedSegments segments
	// deleted by folds, and SnapshotEntries the size of the newest
	// snapshot. Replay reports what this open streamed — its
	// SnapshotEntries+TailEntries sum is the bounded restart cost.
	SealedSegments  int    `json:"sealed_segments,omitempty"`
	Rotations       uint64 `json:"rotations,omitempty"`
	Folds           uint64 `json:"folds,omitempty"`
	FoldErrors      uint64 `json:"fold_errors,omitempty"`
	FoldedSegments  uint64 `json:"folded_segments,omitempty"`
	SnapshotEntries int64  `json:"snapshot_entries,omitempty"`

	// Byte accounting for the fold pacing policy and the fold
	// benchmark. SealedBytes is the unfolded sealed backlog,
	// SnapshotBytes the newest snapshot's size, FoldBytesWritten the
	// cumulative bytes folds have written (snapshots + archives) —
	// the number the fold-by-reference optimization flattens.
	SealedBytes      int64  `json:"sealed_bytes,omitempty"`
	SnapshotBytes    int64  `json:"snapshot_bytes,omitempty"`
	FoldBytesWritten uint64 `json:"fold_bytes_written,omitempty"`

	// Archive counters: referenced cold-history files on disk, their
	// total size, how many this process wrote, and how many orphans
	// (written by a fold that crashed pre-install) open removed.
	Archives        int64  `json:"archives,omitempty"`
	ArchiveBytes    int64  `json:"archive_bytes,omitempty"`
	ArchivesWritten uint64 `json:"archives_written,omitempty"`
	OrphanArchives  uint64 `json:"orphan_archives,omitempty"`

	// Integrity is the corruption-detection ledger: framing mode, torn
	// tails recovered at open, corrupt/quarantined file counts, and the
	// background scrubber's progress.
	Integrity IntegrityStats `json:"integrity"`

	Replay ReplayStats `json:"replay"`
}

// Engine is the pluggable persistence layer behind a Store. A Store
// owns exactly one engine; repositories and logs never talk to it
// directly. Implementations must be safe for concurrent Append.
//
// Lifecycle: construct, Replay once (which also opens the engine for
// appending), Append/Seal/Fold freely, Close once. Append blocks until
// the entry is committed at the engine's durability level, so callers
// can treat a nil error as "survives a crash" for durable engines.
type Engine interface {
	// Replay streams every previously committed entry through fn in
	// commit order, then opens the engine for appending. It must be
	// called exactly once, before any Append. An entry's Data is valid
	// only during the fn call that receives it: it may alias the line
	// the reader read, and it has not been checked to be JSON — fn
	// decodes it (or copies it) and reports an error if it cannot.
	Replay(fn func(Entry) error) error
	// Append assigns the next sequence number to e, commits it, and
	// returns the assigned sequence once the commit is acknowledged.
	// onCommit, if non-nil, is invoked exactly once for a successful
	// append with the assigned sequence, in commit order with respect
	// to every other append's onCommit, after durability and before
	// Append returns — this is how callers keep in-memory state ordered
	// identically to the journal, so that crash recovery never surfaces
	// a value no live reader ever observed (the sequence is what lets
	// them record fold boundaries). A failed write, flush or fsync
	// returns an error and never invokes onCommit. The journal engine
	// may run onCommit on another appender's goroutine, under its
	// appender lock: onCommit must be fast and must not call back into
	// the engine.
	Append(e Entry, onCommit func(seq uint64)) (uint64, error)
	// Seal finishes the active journal segment so a following Fold can
	// compact it — an O(1) rename/create under the appender lock that
	// never blocks concurrent appends for more than that. A no-op when
	// the active segment is empty or the engine has no segments.
	Seal() error
	// Fold compacts every segment sealed before the call into a
	// snapshot of the live state and deletes them — the compaction
	// primitive, safe to run while appends proceed. build is invoked
	// once, after the fold boundary is fixed, and returns the
	// live-entry image to write (see Store.foldImage). Engines without
	// segments ignore build. Callers serialize folds.
	Fold(build func() []Entry) error
	// ReadArchive streams one referenced archive file's entries through
	// fn, verifying its checksum when read to the end (fn may return
	// ErrStopScan to stop early). Engines without archive storage
	// return an error.
	ReadArchive(ref ArchiveRef, fn func(Entry) error) error
	// Scrub runs one bounded background-verification tick: up to
	// maxBytes (0 = DefaultScrubBytesPerTick) of sealed segments,
	// snapshots and archives re-checked against their CRCs and footers
	// while the engine serves. Detections are counted in
	// Stats().Integrity and reported through the configured OnCorrupt
	// hook; engines without durable files return zeros.
	Scrub(maxBytes int64) ScrubResult
	// Stats reports engine health and throughput counters.
	Stats() EngineStats
	// Depth is the number of appenders in flight (inside Append, not
	// yet acknowledged) — an O(1) saturation signal for admission
	// control, cheap enough to sample per request.
	Depth() int
	// Close flushes and applies the appends in flight, then releases
	// resources. It is idempotent.
	Close() error
}

// memEngine is the no-persistence engine: appends only count and
// sequence. NewMemory stores and the "memory" engine option use it.
type memEngine struct {
	seq     atomic.Uint64
	appends atomic.Uint64
	closed  atomic.Bool
}

// NewMemoryEngine returns an Engine that persists nothing — every
// commit is acknowledged immediately. It backs in-memory stores and is
// the fallback when no data directory is configured.
func NewMemoryEngine() Engine { return &memEngine{} }

func (m *memEngine) Replay(fn func(Entry) error) error { return nil }

func (m *memEngine) Append(e Entry, onCommit func(uint64)) (uint64, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	m.appends.Add(1)
	seq := m.seq.Add(1)
	if onCommit != nil {
		onCommit(seq)
	}
	return seq, nil
}

// Seal implements Engine: nothing persisted, nothing to seal.
func (m *memEngine) Seal() error { return nil }

// Depth implements Engine: in-memory appends commit synchronously, so
// none is ever in flight.
func (m *memEngine) Depth() int { return 0 }

// Fold implements Engine: nothing persisted, nothing to fold. build is
// not invoked — there is no snapshot to write its image into.
func (m *memEngine) Fold(func() []Entry) error { return nil }

// ReadArchive implements Engine: the memory engine has no archive
// storage, so nothing can ever hold a ref to read.
func (m *memEngine) ReadArchive(ArchiveRef, func(Entry) error) error {
	return errors.New("store: memory engine has no archives")
}

// Scrub implements Engine: no durable files, nothing to verify.
func (m *memEngine) Scrub(int64) ScrubResult { return ScrubResult{} }

func (m *memEngine) Stats() EngineStats {
	state := StateRunning
	if m.closed.Load() {
		state = StateClosed
	}
	n := m.appends.Load()
	return EngineStats{
		Engine:  "memory",
		State:   state,
		LastSeq: m.seq.Load(),
		Appends: n,
		Batches: n,
	}
}

func (m *memEngine) Close() error {
	m.closed.Store(true)
	return nil
}
