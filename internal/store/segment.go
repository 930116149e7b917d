package store

// Segmented-journal machinery shared by the Store and the instance
// collection: file naming, the directory inventory, the
// per-kind file verifier, the seal (rotate) and fold (snapshot)
// primitives, and the replay driver that streams "newest snapshot,
// then tail segments, then the active file" while skipping records the
// snapshot already covers.
//
// File layout inside a journal directory:
//
//	gelee.journal          the active segment — all appends go here
//	journal.NNNNNN.jsonl   sealed segments, immutable, NNNNNN ascending
//	snapshot.NNNNNN.jsonl  the snapshot folding segments 1..NNNNNN
//	snapshot.*.jsonl.tmp   an in-progress fold (ignored and removed)
//
// Sealing renames the active file to the next sealed name and creates
// a fresh active — an O(1) operation under the appender lock, so
// writers never wait on compaction. Folding writes a new snapshot to a
// temp file, fsyncs, renames it into place, and only then deletes the
// segments it covers (and any older snapshot); every crash window
// leaves either the old or the new generation fully intact.

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opSeqMark is the snapshot-internal high-water-mark entry: the first
// line of every snapshot, carrying the journal sequence current when
// the fold began. Without it, a snapshot whose entries all carry
// boundary 0 (a repositories-only store, fully folded) would lose the
// sequence high-water mark and numbering would restart after reopen.
// The replay driver consumes it; callers never see it.
const opSeqMark Op = "seq-hwm"

// sealedName returns the file name of sealed segment n.
func sealedName(n uint64) string { return fmt.Sprintf("journal.%06d.jsonl", n) }

// snapName returns the file name of the snapshot folding segments 1..n.
func snapName(n uint64) string { return fmt.Sprintf("snapshot.%06d.jsonl", n) }

// parseNumbered extracts NNNNNN from prefix+NNNNNN+".jsonl" names.
func parseNumbered(name, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, ".jsonl")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// segState is a journal directory's inventory: the live generation —
// the newest snapshot, the sealed segments it does not cover, the
// archive files present (judged against the snapshot's refs after
// replay, see reconcileArchives) — and every other file, each with
// the verdict Fsck reports for it. Taking it changes nothing on disk:
// the open removes the stale files in a separate step (removeStale).
type segState struct {
	snapNum     uint64 // newest snapshot number, 0 = none
	snapBytes   int64
	sealed      []uint64
	sealedBytes int64
	archives    map[uint64]int64 // archive number -> byte length
	sizes       map[string]int64 // every file's byte length, by name
	// extra holds the files outside the live generation: stale ones
	// (superseded snapshots, segments a snapshot already covers, the
	// temp files of a fold that never installed), quarantined ones and
	// files the store does not know.
	extra []FsckFile
	// quarantined counts the .quarantined files: while any is present,
	// no archive can be judged unreferenced (see reconcileArchives).
	quarantined int
}

// scanSegments inventories dir on fsys — the one directory listing
// behind the open, Fsck and a quarantine open. A missing directory is
// empty.
func scanSegments(fsys FS, dir string) (segState, error) {
	st := segState{archives: make(map[uint64]int64), sizes: make(map[string]int64)}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return st, nil
		}
		return st, fmt.Errorf("store: scan journal dir: %w", err)
	}
	extra := func(name, kind, status, detail string) {
		st.extra = append(st.extra, FsckFile{Name: name, Kind: kind, Bytes: st.sizes[name], Status: status, Detail: detail})
	}
	var snaps, sealed []uint64
	for _, de := range entries {
		name := de.Name
		st.sizes[name] = de.Size
		switch {
		case name == journalName:
		case strings.Contains(name, ".quarantined"):
			st.quarantined++
			extra(name, "quarantined", "quarantined", "moved aside by an earlier quarantine; restore or delete manually")
		case strings.HasSuffix(name, ".tmp") &&
			(strings.HasPrefix(name, "snapshot.") || strings.HasPrefix(name, "archive.")):
			extra(name, "temp", "stale", "in-progress fold never installed; the next open removes it")
		default:
			if n, ok := parseNumbered(name, "snapshot."); ok {
				snaps = append(snaps, n)
			} else if n, ok := parseNumbered(name, "journal."); ok {
				sealed = append(sealed, n)
			} else if n, ok := parseNumbered(name, "archive."); ok {
				st.archives[n] = st.sizes[name]
			} else {
				extra(name, "other", "ok", "not a journal file; ignored by the store")
			}
		}
	}
	slices.Sort(snaps)
	slices.Sort(sealed)
	if len(snaps) > 0 {
		st.snapNum = snaps[len(snaps)-1]
		st.snapBytes = st.sizes[snapName(st.snapNum)]
		for _, n := range snaps[:len(snaps)-1] {
			extra(snapName(n), "snapshot", "stale", "superseded by a newer snapshot; the next open removes it")
		}
	}
	for _, n := range sealed {
		if n <= st.snapNum {
			extra(sealedName(n), "segment", "stale", "folded into the snapshot; the next open removes it")
			continue
		}
		st.sealed = append(st.sealed, n)
		st.sealedBytes += st.sizes[sealedName(n)]
	}
	return st, nil
}

// removeStale deletes the stale files the inventory found: what a fold
// that crashed before or after installing its snapshot left behind.
func (st segState) removeStale(fsys FS, dir string) {
	for _, f := range st.extra {
		if f.Status == "stale" {
			fsys.Remove(filepath.Join(dir, f.Name))
		}
	}
}

// journalFiles lists the generation's journal files in replay order:
// the newest snapshot, the uncovered sealed segments, the active file.
func (st segState) journalFiles() []liveFile {
	files := make([]liveFile, 0, len(st.sealed)+2)
	if st.snapNum > 0 {
		files = append(files, liveFile{kind: kindSnapshot, num: st.snapNum, name: snapName(st.snapNum)})
	}
	for _, n := range st.sealed {
		files = append(files, liveFile{kind: kindSealed, num: n, name: sealedName(n)})
	}
	return append(files, liveFile{kind: kindActive, name: journalName})
}

// kindNames are the kinds as Fsck reports them.
var kindNames = [...]string{kindSealed: "segment", kindSnapshot: "snapshot", kindArchive: "archive", kindActive: "active"}

// liveFile is one file of a journal generation: the unit the replay,
// Fsck and the scrubber verify.
type liveFile struct {
	kind fileKind
	num  uint64     // the file number; 0 for the active file
	name string     // the file name within its directory
	ref  ArchiveRef // an archive's recorded count, length and checksum
}

// verify checks the file by its kind's rule, streaming its records
// through fn, which may be nil to verify only. A missing journal file
// verifies as empty; a missing archive is corrupt.
func (f liveFile) verify(fsys FS, dir string, fn func(Entry) error) (fileReplay, error) {
	if f.kind != kindArchive {
		return replayJournalFile(fsys, filepath.Join(dir, f.name), f.kind, fn)
	}
	if fn == nil {
		fn = func(Entry) error { return nil }
	}
	return fileReplay{n: f.ref.Entries, size: f.ref.Bytes}, readArchive(fsys, dir, f.ref, fn)
}

// ReplayStats reports what one open streamed: how many entries came
// from the snapshot, how many from unfolded tail segments (sealed +
// active), and how many tail entries were skipped because the snapshot
// already covered them. SnapshotEntries+TailEntries is the bounded
// restart cost the fold buys — it stops growing with total history.
type ReplayStats struct {
	SnapshotEntries int `json:"snapshot_entries"`
	TailEntries     int `json:"tail_entries"`
	SkippedEntries  int `json:"skipped_entries"`
	// Segments is the number of sealed tail segments replayed.
	Segments int `json:"segments"`
	// ArchiveRefs is the number of archive references the snapshot
	// carried — cold history adopted by pointer, not replayed into RAM.
	ArchiveRefs int `json:"archive_refs,omitempty"`
	// SharedEntries counts the shared records replayed (opShared, in
	// the snapshot head or the tail); the other counts exclude them.
	SharedEntries int `json:"shared_entries,omitempty"`
	// Read is the time the reader spent reading lines and checking
	// their CRCs, Envelope the time it spent decoding their envelopes —
	// both on the one reader goroutine, ahead of any applier lanes.
	Read     time.Duration `json:"read_ns"`
	Envelope time.Duration `json:"envelope_ns"`
}

// add sums one file's reader times into the stats.
func (st *ReplayStats) add(fr fileReplay) {
	st.Read += fr.read
	st.Envelope += fr.envelope
}

// segReplay is the full result of a segmented replay.
type segReplay struct {
	stats   ReplayStats
	lastSeq uint64
	active  fileReplay // the active file's result; good excludes footer + torn tail
	// refs are the archive refs the snapshot carried: the archives that
	// belong to this generation (see reconcileArchives).
	refs []ArchiveRef
	// Torn-tail accounting: files whose invalid suffix was dropped as a
	// crash tail, and the bytes dropped — recoverable, but counted so
	// operators can see it happened (IntegrityStats).
	tornFiles int
	tornBytes int64
}

// replaySegmented streams the generation st inventoried in dir on fsys
// through fn: the newest snapshot first, then every uncovered sealed
// segment in order, then the active file. key buckets entries for the fold
// boundary (Entry.Repo for the store journal, Entry.ID for the
// instance journal): a snapshot entry's Seq records the journal
// sequence its bucket's state covers, and tail entries at or below
// that boundary are skipped — they were folded into the snapshot, and
// for non-idempotent buckets (logs, instance records) re-applying them
// would double history. Archive refs only ever appear in snapshots:
// each is collected for the open-time reconcile and still forwarded to
// fn, so the owning part adopts its cold history. fn nil verifies
// without applying. It writes nothing.
//
// Torn tails vs. corruption: each file kind gets its own rule (see
// fileKind in journal.go). The active file tolerates an invalid
// suffix (truncated and counted), a sealed segment only a torn final
// line when it carries no footer (the legacy crash shape where the
// torn active file was sealed by a later life), and a snapshot nothing
// — snapshots are renamed into place only after a successful fsync, so
// damage there fails the replay rather than silently dropping folded
// state.
//
// onFile, when set, sees each file's result — Fsck's verdict hook. Its
// error ends the replay; returning nil for a failed file continues
// with the next one, verified but no longer applied (no open applies
// what follows a hole), and a failed snapshot's refs dropped.
func replaySegmented(fsys FS, dir string, st segState, key func(Entry) string, fn func(Entry) error,
	onFile func(liveFile, fileReplay, error) error) (segReplay, error) {
	var out segReplay
	bounds := make(map[string]uint64)
	note := func(seq uint64) {
		if seq > out.lastSeq {
			out.lastSeq = seq
		}
	}
	for _, f := range st.journalFiles() {
		snap := f.kind == kindSnapshot
		fr, err := f.verify(fsys, dir, func(e Entry) (err error) {
			if snap {
				if e.Op == opSeqMark {
					note(e.Seq)
					return nil
				}
				if out.refs, err = collectRef(out.refs, e); err != nil {
					return err
				}
			}
			if fn == nil {
				return nil
			}
			k := key(e)
			switch {
			case snap:
				bounds[k] = max(bounds[k], e.Seq)
			case e.Seq <= bounds[k]:
				out.stats.SkippedEntries++
				return nil
			}
			switch {
			case e.Op == opShared:
				out.stats.SharedEntries++
			case snap:
				out.stats.SnapshotEntries++
			default:
				out.stats.TailEntries++
			}
			return fn(e)
		})
		out.stats.add(fr)
		if err == nil {
			note(fr.lastSeq)
			switch f.kind {
			case kindSnapshot:
				out.stats.ArchiveRefs = len(out.refs)
			case kindSealed:
				out.stats.Segments++
			case kindActive:
				out.active = fr
			}
			if fr.torn > 0 {
				// fr.size - fr.good can also include a footer left by a
				// seal that crashed before its rename; only genuinely torn
				// bytes are counted (the footer is still truncated away
				// via fr.good).
				out.tornFiles++
				out.tornBytes += fr.torn
			}
		} else if snap {
			out.refs = nil
		}
		if onFile != nil {
			if err != nil {
				fn = nil
			}
			err = onFile(f, fr, err)
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// truncateTorn cuts the active file back to its last valid record
// boundary so the next append never welds onto a torn line.
func truncateTorn(fsys FS, dir string, goodBytes int64) error {
	path := filepath.Join(dir, journalName)
	if size, err := fsys.Size(path); err == nil && size > goodBytes {
		if err := fsys.Truncate(path, goodBytes); err != nil {
			return fmt.Errorf("store: truncate torn journal tail: %w", err)
		}
	}
	return nil
}

// segFiles tracks a directory's segment generation for a live appender
// and owns the seal and fold primitives. sealedHi is guarded by the
// owner's appender lock (seals happen under it); the remaining fields
// are atomics so stats and folds read them lock-free. Folds must be
// serialized by the owner (one fold at a time).
type segFiles struct {
	fs       FS
	dir      string
	sealedHi uint64        // highest sealed segment on disk (appender lock)
	snapNum  atomic.Uint64 // segments <= snapNum are folded into the snapshot

	rotations   atomic.Uint64
	folds       atomic.Uint64
	foldErrors  atomic.Uint64
	foldedSegs  atomic.Uint64
	snapEntries atomic.Int64 // entries in the newest snapshot

	// Byte accounting feeding the fold pacing policy (garbage ratio =
	// sealedBytes / (sealedBytes + snapBytes)) and the fold benchmark.
	sealedBytes atomic.Int64  // bytes in unfolded sealed segments
	snapBytes   atomic.Int64  // bytes of the newest snapshot
	foldBytes   atomic.Uint64 // bytes written by folds (snapshots + archives)

	// Archive generation (see archive.go). archiveHi advances only
	// under the owner's fold serialization.
	archiveHi       atomic.Uint64
	archives        atomic.Int64 // referenced archive files on disk
	archiveBytes    atomic.Int64
	archivesWritten atomic.Uint64
	orphanArchives  atomic.Uint64 // unreferenced archives removed on open

	// Integrity accounting (see integrity.go and scrub.go). onCorrupt
	// is set before any traffic (at open) and observes every corruption
	// detection; nil = unobserved.
	tornTails     atomic.Uint64 // files whose torn tails open dropped
	tornTailBytes atomic.Int64
	corrupt       atomic.Uint64 // corrupt files detected (open + scrub)
	quarantined   atomic.Uint64 // files moved aside by quarantine mode
	scrubTicks    atomic.Uint64
	scrubPasses   atomic.Uint64
	scrubFiles    atomic.Uint64
	scrubBytes    atomic.Uint64
	lastScrub     atomic.Int64 // unix seconds of the last completed pass
	onCorrupt     func(CorruptFile)

	// scrubMu guards the scrub cursor and last-error text (one scrub
	// tick at a time); refMu the referenced-archive set the scrubber
	// verifies (written by reconcile at open and Archive during folds).
	scrubMu     sync.Mutex
	scrubCursor liveFile
	scrubErr    string
	refMu       sync.Mutex
	refs        map[uint64]ArchiveRef
}

// newSegFiles adopts the generation a scan found.
func newSegFiles(fsys FS, dir string, st segState) *segFiles {
	sf := &segFiles{fs: fsys, dir: dir, refs: make(map[uint64]ArchiveRef)}
	sf.snapNum.Store(st.snapNum)
	sf.sealedHi = st.snapNum
	if n := len(st.sealed); n > 0 {
		sf.sealedHi = st.sealed[n-1]
	}
	sf.sealedBytes.Store(st.sealedBytes)
	sf.snapBytes.Store(st.snapBytes)
	return sf
}

// adoptIntegrity seeds the open-time integrity counters from replay and
// from the Fsck a quarantine open ran first: the torn tails that Fsck
// truncated count as recovered like the ones replay drops.
func (sf *segFiles) adoptIntegrity(sr segReplay, pre FsckReport, onCorrupt func(CorruptFile)) {
	torn, tornBytes, quarantined := uint64(sr.tornFiles), sr.tornBytes, uint64(0)
	for _, f := range pre.Files {
		switch {
		case f.Repaired == "truncated" && f.TornBytes > 0:
			torn++
			tornBytes += f.TornBytes
		case f.Repaired == "quarantined":
			quarantined++
		}
	}
	sf.tornTails.Store(torn)
	sf.tornTailBytes.Store(tornBytes)
	sf.corrupt.Store(uint64(pre.Corrupt))
	sf.quarantined.Store(quarantined)
	sf.onCorrupt = onCorrupt
}

// adoptArchives seeds the archive counters and the scrubber's ref set
// from a reconcile pass.
func (sf *segFiles) adoptArchives(kept []ArchiveRef, keptBytes int64, hi, removed uint64) {
	sf.archiveHi.Store(hi)
	sf.archives.Store(int64(len(kept)))
	sf.archiveBytes.Store(keptBytes)
	sf.orphanArchives.Store(removed)
	sf.refMu.Lock()
	for _, ref := range kept {
		sf.refs[ref.Archive] = ref
	}
	sf.refMu.Unlock()
}

// sealedCount reports how many sealed segments await folding; callers
// hold the appender lock (or accept a stale read for stats).
func (sf *segFiles) sealedCount() uint64 {
	hi := atomic.LoadUint64(&sf.sealedHi)
	if sn := sf.snapNum.Load(); hi > sn {
		return hi - sn
	}
	return 0
}

// seal finishes the active journal j: flush, fsync, close, rename to
// the next sealed segment name, and open a fresh active file that
// continues the sequence. The caller holds the appender lock; an empty
// active file is a no-op (no zero-length segment churn). Returns the
// journal to append to next (j itself when nothing was sealed).
func (sf *segFiles) seal(j *Journal) (*Journal, error) {
	if j.Size() == 0 {
		return j, nil
	}
	// The footer seals the segment's content (count, seq range, whole-
	// file CRC) so the sealed file verifies in one pass. If anything
	// after this fails, the journal's sticky error stops further appends
	// — and a footer stranded in the active file is harmless anyway: the
	// next open truncates it away with the torn tail.
	if err := j.writeFooter(); err != nil {
		return j, err
	}
	if err := j.Flush(); err != nil {
		return j, err
	}
	if err := j.Sync(); err != nil {
		return j, err
	}
	seq := j.Seq()
	size := j.Size()
	if err := j.Close(); err != nil {
		return j, fmt.Errorf("store: close active segment: %w", err)
	}
	active := filepath.Join(sf.dir, journalName)
	next := atomic.LoadUint64(&sf.sealedHi) + 1
	if err := sf.fs.Rename(active, filepath.Join(sf.dir, sealedName(next))); err != nil {
		return j, fmt.Errorf("store: seal segment: %w", err)
	}
	nj, err := openJournal(sf.fs, active, seq)
	if err != nil {
		return j, err
	}
	sf.syncDir()
	atomic.StoreUint64(&sf.sealedHi, next)
	sf.sealedBytes.Add(size)
	sf.rotations.Add(1)
	return nj, nil
}

// fold writes a snapshot covering segments 1..covers and deletes them
// (plus any older snapshot). write receives the open snapshot journal
// and must write every snapshot entry through Journal.writeRaw; the
// file is flushed, fsynced and atomically renamed into place before
// anything is deleted. covers and hwm (the journal's current last
// sequence, preserved across the fold via the opSeqMark header) must
// be sampled under the appender lock before the caller captures its
// live image, so the image is a superset of everything in the folded
// segments; the caller serializes folds. A covers at or below the
// current snapshot is a no-op.
func (sf *segFiles) fold(covers, hwm uint64, write func(*Journal) error) error {
	prev := sf.snapNum.Load()
	if covers <= prev {
		return nil
	}
	final := filepath.Join(sf.dir, snapName(covers))
	tmp := final + ".tmp"
	sf.fs.Remove(tmp)
	sj, err := openJournal(sf.fs, tmp, 0)
	if err != nil {
		sf.foldErrors.Add(1)
		return err
	}
	fail := func(err error) error {
		sj.Close()
		sf.fs.Remove(tmp)
		sf.foldErrors.Add(1)
		return err
	}
	if err := sj.writeRaw(Entry{Seq: hwm, Op: opSeqMark}); err != nil {
		return fail(err)
	}
	if err := write(sj); err != nil {
		return fail(err)
	}
	entries := sj.Raw() - 1 // exclude the opSeqMark header
	if err := sj.writeFooter(); err != nil {
		return fail(err)
	}
	if err := sj.Flush(); err != nil {
		return fail(err)
	}
	if err := sj.Sync(); err != nil {
		return fail(err)
	}
	if err := sj.Close(); err != nil {
		sf.fs.Remove(tmp)
		sf.foldErrors.Add(1)
		return err
	}
	snapSize, _ := sf.fs.Size(tmp)
	if err := sf.fs.Rename(tmp, final); err != nil {
		sf.fs.Remove(tmp)
		sf.foldErrors.Add(1)
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	sf.syncDir()
	// The new snapshot is durable; everything it covers can go. A crash
	// in this window leaves stale files that the next scan removes.
	sf.snapNum.Store(covers)
	for n := prev + 1; n <= covers; n++ {
		seg := filepath.Join(sf.dir, sealedName(n))
		segSize, _ := sf.fs.Size(seg)
		if sf.fs.Remove(seg) == nil {
			sf.foldedSegs.Add(1)
			sf.sealedBytes.Add(-segSize)
		}
	}
	if prev > 0 {
		sf.fs.Remove(filepath.Join(sf.dir, snapName(prev)))
	}
	sf.folds.Add(1)
	sf.snapEntries.Store(entries)
	sf.snapBytes.Store(snapSize)
	sf.foldBytes.Add(uint64(snapSize))
	return nil
}

// syncDir fsyncs the directory so renames and creates inside it
// survive a crash. Best-effort: some file systems refuse directory
// fsync.
func (sf *segFiles) syncDir() { sf.fs.SyncDir(sf.dir) }

// folder is the shared background-compaction loop: seals poke it
// (coalesced to one pending request), it runs the owner's fold until
// stopped. Both the Store and the Instances collection hang theirs off
// the rotation path.
type folder struct {
	ch      chan struct{}
	quit    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
}

func newFolder() *folder {
	return &folder{ch: make(chan struct{}, 1), quit: make(chan struct{})}
}

// start launches the loop (once; later calls are no-ops). fold errors
// are the owner's to count — typically via segFiles.foldErrors — and
// are retried on the next poke.
func (f *folder) start(fold func()) {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case <-f.ch:
				fold()
			case <-f.quit:
				return
			}
		}
	}()
}

// poke requests a fold; free to call from any goroutine, never blocks.
func (f *folder) poke() {
	select {
	case f.ch <- struct{}{}:
	default:
	}
}

// running reports whether the loop was started (and not stopped) —
// the owner's gate for scheduling folds at all.
func (f *folder) running() bool { return f.started.Load() }

// stop terminates the loop and waits for an in-flight fold to finish.
// Idempotent via the started flag; safe when start never ran.
func (f *folder) stop() {
	if !f.started.CompareAndSwap(true, false) {
		return
	}
	close(f.quit)
	f.wg.Wait()
}

// statsInto copies the rotation/fold counters into an EngineStats.
func (sf *segFiles) statsInto(st *EngineStats, replay ReplayStats) {
	st.SealedSegments = int(sf.sealedCount())
	st.Rotations = sf.rotations.Load()
	st.Folds = sf.folds.Load()
	st.FoldErrors = sf.foldErrors.Load()
	st.FoldedSegments = sf.foldedSegs.Load()
	st.SnapshotEntries = sf.snapEntries.Load()
	st.SealedBytes = sf.sealedBytes.Load()
	st.SnapshotBytes = sf.snapBytes.Load()
	st.FoldBytesWritten = sf.foldBytes.Load()
	st.Archives = sf.archives.Load()
	st.ArchiveBytes = sf.archiveBytes.Load()
	st.ArchivesWritten = sf.archivesWritten.Load()
	st.OrphanArchives = sf.orphanArchives.Load()
	st.Integrity = IntegrityStats{
		Framing:          true,
		TornTails:        sf.tornTails.Load(),
		TornTailBytes:    sf.tornTailBytes.Load(),
		CorruptFiles:     sf.corrupt.Load(),
		QuarantinedFiles: sf.quarantined.Load(),
		ScrubTicks:       sf.scrubTicks.Load(),
		ScrubPasses:      sf.scrubPasses.Load(),
		ScrubFiles:       sf.scrubFiles.Load(),
		ScrubBytes:       sf.scrubBytes.Load(),
		LastScrubUnix:    sf.lastScrub.Load(),
	}
	sf.scrubMu.Lock()
	st.Integrity.LastError = sf.scrubErr
	sf.scrubMu.Unlock()
	st.Replay = replay
}
