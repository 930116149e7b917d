package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// appender is the one storage engine of the data tier: the definitions
// Store and the instance collection (Instances) both embed it. It owns
// the journal directory on its file system, the active segment, the
// segment set, the flushed-sequence watermark, the write counters and
// the in-flight gauge, and it opens, seals, folds and closes the
// directory for its owner.
//
// Flush combining: write puts its entry into the shared buffered
// writer under mu — the write fixes the entry's sequence — queues its
// onCommit, and yields once so concurrent appenders can add theirs.
// The first appender back flushes everything written so far (plus one
// fsync when durable) and, still under mu, runs every queued onCommit
// in sequence order before it advances flushedSeq; later appenders
// find their sequence covered and return without a syscall. Hence:
//
//   - applies run in journal order, before their write returns;
//   - a failed flush or sync applies and acknowledges nothing: the
//     queue is dropped, and the journal's sticky error fails every
//     later flush, so each appender the failed flush covered gets an
//     error too;
//   - seal, rotation and close drain the queue the same way before they
//     seal a segment or move flushedSeq, so a sealed segment only holds
//     applied entries and a fold never captures a live image missing an
//     entry of a segment it is about to delete ("sealed implies
//     applied").
type appender struct {
	fs         FS
	dir        string
	sync       bool  // fsync once per flush
	segmentMax int64 // rotate once the active segment outgrows it (0 = never)
	// onSeal, if non-nil, runs under mu after every automatic
	// rotation. It must not block or call back into the appender.
	onSeal func()

	// mu guards j, sf, flushedSeq, queued and replay. j is nil before
	// open and after close.
	mu         sync.Mutex
	j          *Journal
	sf         *segFiles
	flushedSeq uint64
	queued     []queuedApply
	replay     ReplayStats

	// foldMu serializes folds; close takes it so a straggler fold
	// finishes before the files go away.
	foldMu sync.Mutex

	opened   atomic.Bool
	appends  atomic.Uint64
	batches  atomic.Uint64
	syncs    atomic.Uint64
	maxBatch atomic.Int64
	inFlight atomic.Int64 // appenders inside write
}

// Engine state names reported by EngineStats.State: a journal is
// running while it accepts appends, closed before it is opened and
// after Close.
const (
	StateRunning = "running"
	StateClosed  = "closed"
)

// ErrClosed is returned by an append once the journal is closed.
var ErrClosed = errors.New("store: journal closed")

// EngineStats is a point-in-time health/throughput snapshot of a
// journal, exposed over the admin API.
type EngineStats struct {
	// Engine names the journal: "journal" for the definitions journal
	// ("memory" when it lives on the in-memory file system, as the
	// facade reports it), "instances-journal" for the instance
	// collection's.
	Engine string `json:"engine"`
	// State is running or closed.
	State string `json:"state"`
	// LastSeq is the sequence number of the most recent committed entry.
	LastSeq uint64 `json:"last_seq"`
	// Appends counts entries committed since open.
	Appends uint64 `json:"appends"`
	// Batches counts combined flushes; Appends/Batches is the mean
	// number of entries one flush covered.
	Batches uint64 `json:"batches"`
	// Syncs counts fsync calls (one per flush in durable mode).
	Syncs uint64 `json:"syncs"`
	// MaxBatch is the most entries one flush (+fsync) covered.
	MaxBatch int `json:"max_batch"`
	// Pending is the number of appenders in flight: inside an append
	// and not yet acknowledged.
	Pending int `json:"pending"`

	// Segment-rotation and snapshot-folding counters.
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
	// benchmark. ActiveBytes is the active segment's size,
	// SealedBytes the unfolded sealed backlog, SnapshotBytes the
	// newest snapshot's size — their sum is what replay reads —
	// and FoldBytesWritten the cumulative bytes folds have written
	// (snapshots + archives), the number the fold-by-reference
	// optimization flattens.
	ActiveBytes      int64  `json:"active_bytes,omitempty"`
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

// queuedApply is one written entry's onCommit, waiting for the flush
// that covers it.
type queuedApply struct {
	seq uint64
	fn  func(uint64)
}

// open creates the directory if missing, replays it and opens its
// active segment for appending: in quarantine mode fsck with repair
// first (moving every file that fails its checks aside before
// anything is applied, and reporting each detection through
// OnCorrupt), then the inventory,
// removal of the stale files a crashed fold left, the owner's replay
// of the live generation, torn-tail truncation so the next append
// starts on a record boundary, reconciliation of archive files against
// the refs the snapshot carried (a referenced archive must exist
// intact; unreferenced ones are leftovers of a fold that crashed
// before its snapshot installed, and are removed), and finally the
// active file, continuing after the last replayed sequence.
func (a *appender) open(integ IntegrityOptions, replay func(segState) (segReplay, error)) error {
	if err := a.fs.MkdirAll(a.dir); err != nil {
		return fmt.Errorf("store: create dir: %w", err)
	}
	var pre FsckReport
	if integ.Quarantine {
		var err error
		if pre, err = fsck(a.fs, a.dir, true, nil, nil); err != nil {
			return err
		}
		for _, f := range pre.Files {
			if (f.Status == "corrupt" || f.Status == "missing") && integ.OnCorrupt != nil {
				integ.OnCorrupt(CorruptFile{Path: filepath.Join(a.dir, f.Name), Detail: f.Detail,
					Quarantined: f.Repaired == "quarantined", Source: "open"})
			}
		}
	}
	st, err := scanSegments(a.fs, a.dir)
	if err != nil {
		return err
	}
	st.removeStale(a.fs, a.dir)
	sr, err := replay(st)
	if err != nil {
		return err
	}
	if err := truncateTorn(a.fs, a.dir, sr.active.good); err != nil {
		return err
	}
	kept, keptBytes, hi, removed, err := reconcileArchives(a.fs, a.dir, st, sr.refs, integ.Quarantine)
	if err != nil {
		return err
	}
	j, err := openJournal(a.fs, filepath.Join(a.dir, journalName), sr.lastSeq)
	if err != nil {
		return err
	}
	j.adoptReplay(sr.active)
	sf := newSegFiles(a.fs, a.dir, st)
	sf.adoptIntegrity(sr, pre, integ.OnCorrupt)
	sf.adoptArchives(kept, keptBytes, hi, removed)
	a.mu.Lock()
	a.j, a.sf, a.flushedSeq, a.replay = j, sf, sr.lastSeq, sr.stats
	a.mu.Unlock()
	a.opened.Store(true)
	return nil
}

// write appends e and returns its sequence once a flush covers it,
// after onCommit (if non-nil) ran with that sequence (see the type
// doc). A flush that leaves the active segment past segmentMax seals
// it in place.
func (a *appender) write(e Entry, onCommit func(uint64)) (uint64, error) {
	a.inFlight.Add(1)
	defer a.inFlight.Add(-1)
	a.mu.Lock()
	if a.j == nil {
		a.mu.Unlock()
		return 0, ErrClosed
	}
	seq, err := a.j.writeEntry(e)
	if err == nil && onCommit != nil {
		a.queued = append(a.queued, queuedApply{seq: seq, fn: onCommit})
	}
	a.mu.Unlock()
	if err != nil {
		return 0, err
	}
	runtime.Gosched() // let concurrent appenders join this flush
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.flushedSeq >= seq {
		return seq, nil // a concurrent flush, seal or close covered it
	}
	if a.j == nil {
		return 0, ErrClosed // close's final flush failed
	}
	if err := a.flushLocked(); err != nil {
		return 0, err
	}
	a.maybeRotateLocked()
	return seq, nil
}

// flushLocked makes every written entry durable at the configured
// level, runs the queued applies in sequence order and advances
// flushedSeq. On failure the queue is dropped unapplied. Callers hold
// mu.
func (a *appender) flushLocked() error {
	seq := a.j.Seq()
	if seq == a.flushedSeq {
		return nil
	}
	err := a.j.Flush()
	if err == nil && a.sync {
		if err = a.j.Sync(); err == nil {
			a.syncs.Add(1)
		}
	}
	if err == nil {
		for _, q := range a.queued {
			q.fn(q.seq)
		}
	}
	clear(a.queued)
	a.queued = a.queued[:0]
	if err != nil {
		return err
	}
	n := seq - a.flushedSeq
	a.flushedSeq = seq
	a.appends.Add(n)
	a.batches.Add(1)
	if int64(n) > a.maxBatch.Load() {
		a.maxBatch.Store(int64(n))
	}
	return nil
}

// sealLocked drains the queue, then seals the active segment (a no-op
// when it is empty). Callers hold mu.
func (a *appender) sealLocked() error {
	if err := a.flushLocked(); err != nil {
		return err
	}
	nj, err := a.sf.seal(a.j)
	a.j = nj
	return err
}

// maybeRotateLocked seals the active segment once it outgrew
// segmentMax and calls onSeal so a fold follows. Seal failures are
// sticky on the journal and surface on the next flush. Callers hold mu.
func (a *appender) maybeRotateLocked() {
	if a.segmentMax <= 0 || a.j.Size() < a.segmentMax {
		return
	}
	if a.sealLocked() == nil && a.onSeal != nil {
		a.onSeal()
	}
}

// Seal rotates the active segment now (a no-op when it is empty).
// Appends block only for the flush and the rename/create.
func (a *appender) Seal() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.j == nil {
		return ErrClosed
	}
	return a.sealLocked()
}

// fold compacts every segment sealed before the call into a new
// snapshot. write receives the snapshot journal and returns an
// optional hook that runs, still inside the fold lock, once the
// snapshot is durably installed. Appends proceed concurrently.
func (a *appender) fold(write func(sj *Journal) (installed func(), err error)) error {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	a.mu.Lock()
	if a.j == nil {
		a.mu.Unlock()
		return ErrClosed
	}
	covers, hwm, sf := a.sf.sealedHi, a.j.Seq(), a.sf
	a.mu.Unlock()
	var installed func()
	err := sf.fold(covers, hwm, func(sj *Journal) (err error) {
		installed, err = write(sj)
		return err
	})
	if err == nil && installed != nil {
		installed()
	}
	return err
}

// lastSeq reports the sequence of the newest written entry.
func (a *appender) lastSeq() (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.j == nil {
		return 0, ErrClosed
	}
	return a.j.Seq(), nil
}

// Scrub runs one bounded background-verification tick over the sealed
// segments, the newest snapshot and the archives (see scrub.go); zeros
// before open and after close.
func (a *appender) Scrub(maxBytes int64) ScrubResult {
	a.mu.Lock()
	sf, open := a.sf, a.j != nil
	a.mu.Unlock()
	if !open {
		return ScrubResult{}
	}
	return sf.scrubTick(maxBytes)
}

// Depth is the number of appenders inside write — the saturation
// signal admission control samples.
func (a *appender) Depth() int { return int(a.inFlight.Load()) }

// stats reports the write counters (flushes as batches) and the
// segment, fold, archive and replay counters under the given engine
// name.
func (a *appender) stats(engine string) EngineStats {
	st := EngineStats{
		Engine:   engine,
		State:    StateClosed,
		Appends:  a.appends.Load(),
		Batches:  a.batches.Load(),
		Syncs:    a.syncs.Load(),
		MaxBatch: int(a.maxBatch.Load()),
		Pending:  a.Depth(),
	}
	a.mu.Lock()
	if a.j != nil {
		st.State = StateRunning
		st.LastSeq = a.j.Seq()
		st.ActiveBytes = a.j.Size()
	}
	sf, replay := a.sf, a.replay
	a.mu.Unlock()
	if sf != nil {
		sf.statsInto(&st, replay)
	}
	return st
}

// Close waits out an in-flight fold, then flushes and applies what is
// queued — so in-flight appenders are acknowledged exactly when their
// onCommit ran — and closes the active segment. Idempotent.
func (a *appender) Close() error {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.j == nil {
		return nil
	}
	err := a.flushLocked()
	if closeErr := a.j.Close(); err == nil {
		err = closeErr
	}
	a.j = nil
	return err
}
