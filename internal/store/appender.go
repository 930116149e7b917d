package store

import (
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// appender is the one durable write path of the data tier: the
// definitions journal (journalEngine) and the instance collection
// (Instances) both append through it. It owns the active segment, the
// segment set, the flushed-sequence watermark, the write counters and
// the in-flight gauge, and it opens, seals, folds and closes the
// directory for its owner.
//
// Flush combining: Append writes its entry into the shared buffered
// writer under mu — the write fixes the entry's sequence — queues its
// onCommit, and yields once so concurrent appenders can add theirs.
// The first appender back flushes everything written so far (plus one
// fsync when durable) and, still under mu, runs every queued onCommit
// in sequence order before it advances flushedSeq; later appenders
// find their sequence covered and return without a syscall. Hence:
//
//   - applies run in journal order, before their Append returns;
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
	dir           string
	sync          bool  // fsync once per flush
	segmentMax    int64 // rotate once the active segment outgrows it (0 = never)
	snapshotEvery uint64
	// onSeal, if non-nil, runs under mu after a rotation leaves at
	// least snapshotEvery sealed segments unfolded. It must not block
	// or call back into the appender.
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
	inFlight atomic.Int64 // appenders inside Append
}

// queuedApply is one written entry's onCommit, waiting for the flush
// that covers it.
type queuedApply struct {
	seq uint64
	fn  func(uint64)
}

// open replays the directory and opens its active segment for
// appending: the quarantine pre-verify pass when configured (moving
// every file that fails its CRCs aside before anything is applied),
// the owner's replay, torn-tail truncation so the next append starts
// on a record boundary, reconciliation of archive files against the
// refs the snapshot carried (a referenced archive must exist intact;
// unreferenced ones are leftovers of a fold that crashed before its
// snapshot installed, and are removed), and finally the active file,
// continuing after the last replayed sequence.
func (a *appender) open(integ IntegrityOptions, replay func() (segReplay, error)) error {
	quarantined, corrupt := 0, 0
	if integ.Quarantine {
		var err error
		if quarantined, corrupt, err = preVerify(a.dir, integ.OnCorrupt); err != nil {
			return err
		}
	}
	sr, err := replay()
	if err != nil {
		return err
	}
	if err := truncateTorn(a.dir, sr.active.good); err != nil {
		return err
	}
	kept, keptBytes, hi, removed, err := reconcileArchives(a.dir, sr.state.archives, sr.refs,
		integ.Quarantine, quarantined > 0)
	if err != nil {
		return err
	}
	j, err := openJournal(filepath.Join(a.dir, journalName), sr.lastSeq)
	if err != nil {
		return err
	}
	j.adoptReplay(sr.active)
	sf := newSegFiles(a.dir, sr.state)
	sf.adoptIntegrity(sr, quarantined, corrupt, integ.OnCorrupt)
	sf.adoptArchives(kept, keptBytes, hi, removed)
	a.mu.Lock()
	a.j, a.sf, a.flushedSeq, a.replay = j, sf, sr.lastSeq, sr.stats
	a.mu.Unlock()
	a.opened.Store(true)
	return nil
}

// Append writes e and returns its sequence once a flush covers it,
// after onCommit (if non-nil) ran with that sequence (see the type
// doc). A flush that leaves the active segment past segmentMax seals
// it in place.
func (a *appender) Append(e Entry, onCommit func(uint64)) (uint64, error) {
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
// segmentMax and calls onSeal when enough sealed segments await a
// fold. Seal failures are sticky on the journal and surface on the
// next flush. Callers hold mu.
func (a *appender) maybeRotateLocked() {
	if a.segmentMax <= 0 || a.j.Size() < a.segmentMax {
		return
	}
	if a.sealLocked() == nil && a.onSeal != nil && a.sf.sealedCount() >= a.snapshotEvery {
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

// Depth is the number of appenders inside Append — the saturation
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
