package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// JournalConfig tunes the journaled engine. The zero value is a valid
// configuration: opportunistic group commit, no fsync, default batch
// cap and queue depth, no segment rotation.
type JournalConfig struct {
	// Dir is the directory holding the journal segments.
	Dir string
	// Sync fsyncs once per committed batch — durable group commit.
	Sync bool
	// SyncEveryAppend commits and fsyncs each append on its own
	// (forces FlushBatch=1 and Sync). This is the pre-engine baseline,
	// kept so benchmarks can measure what group commit buys.
	SyncEveryAppend bool
	// FlushInterval is how long the writer waits for more appends to
	// grow a batch once it has at least one. 0 means opportunistic:
	// commit whatever is queued, never wait.
	FlushInterval time.Duration
	// FlushBatch caps entries per batch. 0 means DefaultFlushBatch.
	FlushBatch int
	// Queue is the commit-queue capacity. 0 means DefaultQueue.
	Queue int
	// SegmentMaxBytes seals the active segment once it grows past this
	// size, rotating to a fresh one under the appender lock. 0 disables
	// automatic rotation (Seal still rotates on demand).
	SegmentMaxBytes int64
	// SnapshotEvery triggers OnSeal once this many sealed segments
	// await folding (0 = every seal).
	SnapshotEvery int
	// OnSeal, if non-nil, is invoked from its own goroutine after a
	// rotation leaves at least SnapshotEvery sealed segments unfolded —
	// the hook the Store's background folder hangs off.
	OnSeal func()
	// Integrity tunes corruption detection: record framing, quarantine
	// mode, the background scrubber (see IntegrityOptions).
	Integrity IntegrityOptions
}

// Defaults for JournalConfig zero fields.
const (
	DefaultFlushBatch = 128
	DefaultQueue      = 512
)

// commitReq is one queued append awaiting group commit.
type commitReq struct {
	entry    Entry
	onCommit func(uint64)
	done     chan commitRes
}

// commitRes acknowledges a committed (or failed) append.
type commitRes struct {
	seq uint64
	err error
}

// journalEngine is the default persistent engine: a segmented
// append-only JSONL journal written by a single background goroutine
// that batches concurrent appends into one write (+ one fsync in
// durable mode) — group commit. Appenders block on a per-entry done
// channel until their batch is on disk. The active segment rotates at
// SegmentMaxBytes; Fold compacts sealed segments into a snapshot while
// appends proceed (see the package doc's segment section).
type journalEngine struct {
	cfg JournalConfig

	// mu guards the active journal across batch commits and seals.
	mu sync.Mutex
	j  *Journal
	sf *segFiles

	// foldMu serializes folds; never held with mu except for the brief
	// boundary reads inside Fold.
	foldMu sync.Mutex
	replay ReplayStats

	// sendMu lets Close exclude new senders before draining the queue:
	// senders hold it shared for the enqueue, Close takes it exclusive
	// to flip closing.
	sendMu  sync.RWMutex
	closing bool
	reqs    chan commitReq
	quit    chan struct{}
	wg      sync.WaitGroup

	state    atomic.Int32 // 0 new, 1 running, 2 draining, 3 closed
	appends  atomic.Uint64
	batches  atomic.Uint64
	syncs    atomic.Uint64
	maxBatch atomic.Int64
}

// NewJournalEngine builds (but does not open) a journaled engine; the
// journal is replayed and opened by Replay.
func NewJournalEngine(cfg JournalConfig) (Engine, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	if cfg.SyncEveryAppend {
		cfg.Sync = true
		cfg.FlushBatch = 1
		cfg.FlushInterval = 0
	}
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = DefaultFlushBatch
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 1
	}
	return &journalEngine{
		cfg:  cfg,
		reqs: make(chan commitReq, cfg.Queue),
		quit: make(chan struct{}),
	}, nil
}

// Replay implements Engine: stream the newest snapshot, the uncovered
// sealed segments and the active file through fn (skipping folded
// duplicates), truncate away any torn active tail so the next append
// starts on a record boundary, reconcile archive files against the
// refs the snapshot carried (a referenced archive must exist intact;
// unreferenced ones are leftovers of a fold that crashed before its
// snapshot installed, and are removed), open the active segment for
// appending at the right sequence, and start the commit writer. In
// quarantine mode a pre-verify pass first moves every file that fails
// its CRCs aside — before anything is applied — so the replay serves
// the surviving history instead of failing (see preVerify).
func (e *journalEngine) Replay(fn func(Entry) error) error {
	quarantined, corrupt := 0, 0
	if e.cfg.Integrity.Quarantine {
		var err error
		quarantined, corrupt, err = preVerify(e.cfg.Dir, e.cfg.Integrity.OnCorrupt)
		if err != nil {
			return err
		}
	}
	// Archive refs only ever appear in snapshots (the append path never
	// writes them), so every one seen during replay is part of the
	// durable generation — record it for reconciliation and still
	// forward it to fn so the owning part adopts its cold history.
	var refs []ArchiveRef
	sr, err := replaySegmented(e.cfg.Dir, func(en Entry) string { return en.Repo }, func(en Entry) error {
		if en.Op == opArchiveRef {
			var ref ArchiveRef
			if jsonErr := json.Unmarshal(en.Data, &ref); jsonErr != nil {
				return fmt.Errorf("%w: archive ref: %v", ErrCorrupt, jsonErr)
			}
			refs = append(refs, ref)
		}
		return fn(en)
	})
	if err != nil {
		return err
	}
	if err := truncateTorn(e.cfg.Dir, sr.active.good); err != nil {
		return err
	}
	kept, keptBytes, hi, removed, err := reconcileArchives(e.cfg.Dir, sr.state.archives, refs,
		e.cfg.Integrity.Quarantine, quarantined > 0)
	if err != nil {
		return err
	}
	j, err := openJournal(filepath.Join(e.cfg.Dir, journalName), sr.lastSeq)
	if err != nil {
		return err
	}
	j.adoptReplay(sr.active)
	e.j = j
	e.sf = newSegFiles(e.cfg.Dir, sr.state)
	e.sf.adoptIntegrity(sr, quarantined, corrupt, e.cfg.Integrity.OnCorrupt)
	e.sf.adoptArchives(kept, keptBytes, hi, removed)
	sr.stats.ArchiveRefs = len(refs)
	e.replay = sr.stats
	e.state.Store(1)
	e.wg.Add(1)
	go e.writer()
	return nil
}

// Append implements Engine: enqueue and wait for the group commit.
// The writer goroutine runs onCommit callbacks in journal order, so
// concurrent writers to the same key apply in exactly the order their
// entries hit the disk.
func (e *journalEngine) Append(entry Entry, onCommit func(uint64)) (uint64, error) {
	req := commitReq{entry: entry, onCommit: onCommit, done: make(chan commitRes, 1)}
	e.sendMu.RLock()
	if e.closing || e.state.Load() != 1 {
		e.sendMu.RUnlock()
		return 0, ErrClosed
	}
	e.reqs <- req
	e.sendMu.RUnlock()
	res := <-req.done
	return res.seq, res.err
}

// writer is the group-commit loop: take one request, opportunistically
// gather more (bounded by FlushBatch and FlushInterval), commit them
// with a single write+fsync, acknowledge everyone.
func (e *journalEngine) writer() {
	defer e.wg.Done()
	batch := make([]commitReq, 0, e.cfg.FlushBatch)
	for {
		select {
		case req := <-e.reqs:
			batch = e.collect(append(batch[:0], req))
			e.commit(batch)
		case <-e.quit:
			// Drain: everything enqueued before Close flipped closing
			// must still be committed and acknowledged.
			for {
				select {
				case req := <-e.reqs:
					batch = e.collect(append(batch[:0], req))
					e.commit(batch)
				default:
					return
				}
			}
		}
	}
}

// collect grows a batch from the queue. With no FlushInterval it takes
// what is already queued plus whatever arrives across a couple of
// scheduler yields — appenders woken by the previous acknowledgement
// need one scheduling slot to re-enqueue, and without the yield a
// single-CPU machine would commit batches of one forever. With a
// FlushInterval it waits up to that long for stragglers, trading
// latency for bigger batches.
func (e *journalEngine) collect(batch []commitReq) []commitReq {
	if e.cfg.FlushInterval <= 0 {
		yields := 0
		for len(batch) < e.cfg.FlushBatch {
			select {
			case req := <-e.reqs:
				batch = append(batch, req)
			default:
				if yields >= 2 {
					return batch
				}
				yields++
				runtime.Gosched()
			}
		}
		return batch
	}
	timer := time.NewTimer(e.cfg.FlushInterval)
	defer timer.Stop()
	for len(batch) < e.cfg.FlushBatch {
		select {
		case req := <-e.reqs:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// commit writes one batch as a unit: every entry into the buffered
// writer, one flush, one optional fsync, the onCommit applications,
// then acknowledgement. A write or sync failure fails the whole batch
// — no entry is acked as durable unless the batch reached the disk.
// After a durable batch the active segment is rotated if it outgrew
// SegmentMaxBytes.
//
// The onCommit callbacks run inside the same e.mu critical section as
// the seal decision, deliberately: a segment must never be sealed
// while it contains entries whose in-memory application is still
// pending, or a fold racing in between would capture a live image (and
// fold boundaries) missing them and then delete the only copy —
// silently losing durable writes on the next restart. Holding e.mu
// through the applies makes "sealed implies applied" an invariant for
// every seal path (rotation here, manual Seal, Compact).
func (e *journalEngine) commit(batch []commitReq) {
	results := make([]commitRes, len(batch))
	e.mu.Lock()
	wrote := false
	for i, req := range batch {
		seq, err := e.j.writeEntry(req.entry)
		results[i] = commitRes{seq: seq, err: err}
		if err == nil {
			wrote = true
		}
	}
	var batchErr error
	if wrote {
		batchErr = e.j.Flush()
		if batchErr == nil && e.cfg.Sync {
			batchErr = e.j.Sync()
			if batchErr == nil {
				e.syncs.Add(1)
			}
		}
	}
	if batchErr == nil {
		// Apply in journal order, before acknowledging (memory never
		// disagrees with what replay would reconstruct) and before any
		// seal can cover these entries (see above).
		for i, req := range batch {
			if results[i].err == nil && req.onCommit != nil {
				req.onCommit(results[i].seq)
			}
		}
		e.maybeRotateLocked()
	}
	e.mu.Unlock()
	e.batches.Add(1)
	if n := int64(len(batch)); n > e.maxBatch.Load() {
		e.maxBatch.Store(n)
	}
	for i, req := range batch {
		res := results[i]
		if res.err == nil && batchErr != nil {
			res = commitRes{err: batchErr}
		}
		if res.err == nil {
			e.appends.Add(1)
		}
		req.done <- res
	}
}

// maybeRotateLocked seals the active segment when it outgrew the
// configured bound and pokes the fold hook; callers hold e.mu. Seal
// failures are sticky on the journal and surface on the next commit.
func (e *journalEngine) maybeRotateLocked() {
	if e.cfg.SegmentMaxBytes <= 0 || e.j.Size() < e.cfg.SegmentMaxBytes {
		return
	}
	nj, err := e.sf.seal(e.j)
	e.j = nj
	if err != nil {
		return
	}
	if e.cfg.OnSeal != nil && e.sf.sealedCount() >= uint64(e.cfg.SnapshotEvery) {
		go e.cfg.OnSeal()
	}
}

// Seal implements Engine: rotate the active segment now (a no-op when
// it is empty). Appends block only for the rename/create itself.
func (e *journalEngine) Seal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state.Load() != 1 || e.j == nil {
		return ErrClosed
	}
	nj, err := e.sf.seal(e.j)
	e.j = nj
	return err
}

// Fold implements Engine: fix the fold boundary (every segment sealed
// so far), capture the live image via build — handing it the segment
// set as Archiver so cold history can be spilled into archive files
// referenced by the snapshot instead of rewritten into it — write the
// image to a new snapshot and delete the folded segments. Appends —
// and further seals — proceed concurrently: the image is captured
// after the boundary, so it is a superset of everything folded, and
// replay skips the overlap via the per-bucket boundary seqs stamped on
// snapshot entries. The image's Commit hook runs only once the
// snapshot is durably installed; on any fold failure it never runs, so
// in-memory state keeps covering history the old generation still
// owns (an archive written by the failed attempt is an orphan the next
// open removes).
func (e *journalEngine) Fold(build func(Archiver) FoldImage) error {
	e.foldMu.Lock()
	defer e.foldMu.Unlock()
	if e.state.Load() != 1 {
		return ErrClosed
	}
	e.mu.Lock()
	covers := e.sf.sealedHi
	var hwm uint64
	if e.j != nil {
		hwm = e.j.Seq()
	}
	e.mu.Unlock()
	var commit func()
	err := e.sf.fold(covers, hwm, func(sj *Journal) error {
		if build == nil {
			return nil
		}
		img := build(e.sf)
		commit = img.Commit
		for _, entry := range img.Entries {
			if err := sj.writeRaw(entry); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil && commit != nil {
		commit()
	}
	return err
}

// ReadArchive implements Engine: stream one archive file, lazily and
// checksum-verified. Archives are immutable and only removed by the
// open-time reconcile pass, so a concurrent fold never races a reader.
func (e *journalEngine) ReadArchive(ref ArchiveRef, fn func(Entry) error) error {
	return readArchive(e.cfg.Dir, ref, fn)
}

// Scrub implements Engine: one bounded verification tick over the
// sealed segments, newest snapshot and archives (see scrub.go).
func (e *journalEngine) Scrub(maxBytes int64) ScrubResult {
	if e.state.Load() != 1 || e.sf == nil {
		return ScrubResult{}
	}
	return e.sf.scrubTick(maxBytes)
}

// Depth implements Engine: the group-commit queue's current occupancy.
func (e *journalEngine) Depth() int { return len(e.reqs) }

// Stats implements Engine.
func (e *journalEngine) Stats() EngineStats {
	state := StateRunning
	switch e.state.Load() {
	case 2:
		state = StateDraining
	case 3:
		state = StateClosed
	}
	st := EngineStats{
		Engine:   "journal",
		State:    state,
		Appends:  e.appends.Load(),
		Batches:  e.batches.Load(),
		Syncs:    e.syncs.Load(),
		MaxBatch: int(e.maxBatch.Load()),
		Pending:  len(e.reqs),
	}
	e.mu.Lock()
	if e.j != nil {
		st.LastSeq = e.j.Seq()
	}
	e.mu.Unlock()
	if e.sf != nil {
		e.sf.statsInto(&st, e.replay)
	}
	return st
}

// Close implements Engine: refuse new appends, drain the queue (every
// queued append is still committed and acknowledged), then flush, sync
// and close the file. Idempotent.
func (e *journalEngine) Close() error {
	e.sendMu.Lock()
	if e.closing {
		e.sendMu.Unlock()
		e.wg.Wait()
		return nil
	}
	e.closing = true
	e.sendMu.Unlock()
	if e.state.Load() == 0 {
		// Never replayed/opened: nothing to drain or close.
		e.state.Store(3)
		return nil
	}
	e.state.Store(2)
	close(e.quit)
	e.wg.Wait()
	// An in-flight Fold may still be writing its snapshot; let it
	// finish before the file handles go away underneath it.
	e.foldMu.Lock()
	defer e.foldMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	err := e.j.Close()
	e.j = nil
	e.state.Store(3)
	return err
}
