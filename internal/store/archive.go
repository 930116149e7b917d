package store

// Log archives: the cold half of the hot/cold history split. Logs are
// append-only history — every fold used to rewrite the whole log into
// the new snapshot, so compaction I/O and snapshot size grew with total
// history forever. Instead, entries older than the log's live window
// are written ONCE into an immutable, CRC-summed archive file
// (archive.NNNNNN.jsonl) and every later snapshot carries them by
// reference: a tiny ArchiveRef line (number + entry count + seq range +
// checksum) instead of the entries themselves. Fold cost and snapshot
// size become O(live state + refs), flat as history grows.
//
// Install protocol mirrors snapshots: write to archive.NNNNNN.jsonl.tmp,
// flush, fsync, rename into place, fsync the directory — all BEFORE the
// snapshot that references the archive is installed. Every crash window
// is safe: a crash before the snapshot install leaves an archive no
// snapshot references, which the next open's reconcile pass deletes; a
// crash after leaves both generations consistent. Referenced archives
// are verified cheaply at open (existence + byte length); the CRC is
// verified whenever an archive is actually streamed, so a bit-rotted
// cold file surfaces as ErrCorrupt on read instead of silently feeding
// damaged history to the cockpit.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// opArchiveRef is the snapshot entry op carrying an ArchiveRef in Data:
// "these log entries live in archive N, checksummed — do not rewrite
// them". Written only to snapshot files, never to the journal tail.
const opArchiveRef Op = "archive-ref"

// collectRef appends e's ArchiveRef to refs when e is an archive-ref
// snapshot entry, and returns refs unchanged otherwise.
func collectRef(refs []ArchiveRef, e Entry) ([]ArchiveRef, error) {
	if e.Op != opArchiveRef {
		return refs, nil
	}
	var ref ArchiveRef
	if err := json.Unmarshal(e.Data, &ref); err != nil {
		return refs, fmt.Errorf("%w: archive ref: %v", ErrCorrupt, err)
	}
	return append(refs, ref), nil
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// amd64/arm64 — the archive checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ArchiveRef identifies one immutable archive file and pins its
// integrity: entry count, the log-sequence range it covers, the CRC32-C
// of its bytes and its byte length. Snapshots carry one ref line per
// archive instead of the archived entries.
type ArchiveRef struct {
	// Archive is the file number (archive.NNNNNN.jsonl).
	Archive uint64 `json:"archive"`
	// Entries is the number of records in the file.
	Entries int `json:"entries"`
	// FirstSeq/LastSeq are the log-entry sequence range archived, which
	// is what lets paged reads skip whole archives without opening them.
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
	// CRC is the CRC32-C of the file's bytes; Bytes its length.
	CRC   uint32 `json:"crc"`
	Bytes int64  `json:"bytes"`
}

// Archiver lets a fold image spill cold history into an immutable
// archive file instead of rewriting it into the snapshot. Implemented
// by engines with archive storage (the journaled engine); build
// callbacks receive it during Engine.Fold.
type Archiver interface {
	// Archive writes entries as one archive file under the fsync+rename
	// install protocol and returns its reference. The entries' Seq
	// fields carry the caller's own sequence numbers (the log seq, not
	// the journal seq) and are preserved verbatim.
	Archive(entries []Entry) (ArchiveRef, error)
}

// FoldImage is what an Engine.Fold build callback returns: the
// live-entry image to write into the snapshot, and an optional Commit
// hook the engine invokes only after the snapshot is durably installed.
// Commit is where parts retire the in-memory copy of state they spilled
// through the Archiver — running it any earlier would trim history the
// durable generation does not yet reference, and a failed fold must
// leave memory untouched (the archive file it wrote becomes an orphan
// the next open removes).
type FoldImage struct {
	Entries []Entry
	Commit  func()
}

// ErrStopScan, returned by a ReadArchive callback, stops the stream
// early without error (and without the end-of-file CRC verification —
// the caller chose not to read the rest).
var ErrStopScan = errors.New("store: stop archive scan")

// archiveName returns the file name of archive n.
func archiveName(n uint64) string { return fmt.Sprintf("archive.%06d.jsonl", n) }

// archive writes entries as archive file number next under the
// fsync+rename protocol and returns its ref. Callers (folds) are
// serialized; sf counters are updated on success.
func (sf *segFiles) Archive(entries []Entry) (ArchiveRef, error) {
	if len(entries) == 0 {
		return ArchiveRef{}, fmt.Errorf("store: empty archive")
	}
	next := sf.archiveHi.Load() + 1
	final := filepath.Join(sf.dir, archiveName(next))
	tmp := final + ".tmp"
	os.Remove(tmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return ArchiveRef{}, fmt.Errorf("store: create archive: %w", err)
	}
	fail := func(err error) (ArchiveRef, error) {
		f.Close()
		os.Remove(tmp)
		return ArchiveRef{}, err
	}
	w := bufio.NewWriter(f)
	crc := crc32.New(crcTable)
	ref := ArchiveRef{Archive: next, Entries: len(entries)}
	var buf []byte
	for i, e := range entries {
		if i == 0 || e.Seq < ref.FirstSeq {
			ref.FirstSeq = e.Seq
		}
		if e.Seq > ref.LastSeq {
			ref.LastSeq = e.Seq
		}
		buf = appendEntry(buf[:0], e)
		if _, err := w.Write(buf); err != nil {
			return fail(fmt.Errorf("store: write archive entry: %w", err))
		}
		crc.Write(buf)
		ref.Bytes += int64(len(buf))
	}
	ref.CRC = crc.Sum32()
	if err := w.Flush(); err != nil {
		return fail(fmt.Errorf("store: flush archive: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("store: sync archive: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return ArchiveRef{}, fmt.Errorf("store: close archive: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return ArchiveRef{}, fmt.Errorf("store: install archive: %w", err)
	}
	syncDir(sf.dir)
	sf.archiveHi.Store(next)
	sf.archives.Add(1)
	sf.archiveBytes.Add(ref.Bytes)
	sf.archivesWritten.Add(1)
	sf.foldBytes.Add(uint64(ref.Bytes))
	sf.refMu.Lock()
	sf.refs[next] = ref
	sf.refMu.Unlock()
	return ref, nil
}

// readArchive streams the referenced archive's entries through fn,
// verifying the CRC and entry count once the file is fully read. fn may
// return ErrStopScan to stop early (skipping the trailing verification).
// A mismatched checksum, count or byte length — or any torn line, since
// archives are fsynced before install — is ErrCorrupt.
func readArchive(dir string, ref ArchiveRef, fn func(Entry) error) error {
	path := filepath.Join(dir, archiveName(ref.Archive))
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: archive %s: %v", ErrCorrupt, archiveName(ref.Archive), err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	crc := crc32.New(crcTable)
	n := 0
	var read int64
	for {
		line, readErr := r.ReadBytes('\n')
		atEOF := errors.Is(readErr, io.EOF)
		if readErr != nil && !atEOF {
			return fmt.Errorf("store: read archive: %w", readErr)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			if !bytes.HasSuffix(line, []byte{'\n'}) {
				return fmt.Errorf("%w: torn line in archive %s", ErrCorrupt, archiveName(ref.Archive))
			}
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				return fmt.Errorf("%w: archive %s: %v", ErrCorrupt, archiveName(ref.Archive), err)
			}
			if err := fn(e); err != nil {
				if errors.Is(err, ErrStopScan) {
					return nil
				}
				return err
			}
			n++
		}
		crc.Write(line)
		read += int64(len(line))
		if atEOF {
			break
		}
	}
	if n != ref.Entries || read != ref.Bytes || crc.Sum32() != ref.CRC {
		return fmt.Errorf("%w: archive %s failed verification (%d/%d entries, %d/%d bytes, crc %08x/%08x)",
			ErrCorrupt, archiveName(ref.Archive), n, ref.Entries, read, ref.Bytes, crc.Sum32(), ref.CRC)
	}
	return nil
}

// reconcileArchives settles the archive directory against the refs the
// newest snapshot carries: every referenced archive must exist with the
// recorded byte length (anything else is ErrCorrupt — the snapshot was
// durably installed, so its cold history must be whole), and archive
// files no snapshot references — a fold that crashed between archive
// install and snapshot install — are deleted. Returns the surviving
// refs, their total bytes, the highest referenced number, and how many
// orphans were removed. CRCs are not checked here: open cost must stay
// O(live + refs), so full verification is the read path's and the
// scrubber's job.
//
// In tolerant mode (quarantine opens) a missing or resized referenced
// archive is skipped instead of failing the open — the pre-verify pass
// already quarantined/reported it, and the surviving history serves
// read-only. keepOrphans additionally disables orphan deletion: when
// any file of the generation was quarantined (above all a snapshot,
// whose refs are the only thing marking archives as referenced), the
// "unreferenced" verdict can no longer be trusted.
func reconcileArchives(dir string, onDisk map[uint64]int64, refs []ArchiveRef, tolerate, keepOrphans bool) (kept []ArchiveRef, keptBytes int64, hi uint64, removed uint64, err error) {
	referenced := make(map[uint64]bool, len(refs))
	for _, ref := range refs {
		referenced[ref.Archive] = true
		if ref.Archive > hi {
			hi = ref.Archive
		}
		size, ok := onDisk[ref.Archive]
		if !ok {
			if tolerate {
				continue
			}
			return nil, 0, 0, 0, fmt.Errorf("%w: snapshot references missing archive %s", ErrCorrupt, archiveName(ref.Archive))
		}
		if size != ref.Bytes {
			if tolerate {
				continue
			}
			return nil, 0, 0, 0, fmt.Errorf("%w: archive %s is %d bytes, snapshot recorded %d",
				ErrCorrupt, archiveName(ref.Archive), size, ref.Bytes)
		}
		kept = append(kept, ref)
		keptBytes += size
	}
	if keepOrphans {
		return kept, keptBytes, hi, 0, nil
	}
	for n := range onDisk {
		if referenced[n] {
			continue
		}
		// Unreferenced: the fold that wrote it died before its snapshot
		// was installed, so no durable state points here.
		if os.Remove(filepath.Join(dir, archiveName(n))) == nil {
			removed++
		}
	}
	return kept, keptBytes, hi, removed, nil
}
