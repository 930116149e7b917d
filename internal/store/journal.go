// Package store implements the data tier of the Gelee architecture
// (Fig. 2, bottom layer): the repositories for users and roles, resource
// and action definitions, lifecycle templates, and the execution log.
//
// The tier is layered. Repositories (Repo, Log) hold typed in-memory
// state, lock-striped across N shards keyed by resource ID so that
// concurrent mutations of different resources never contend. Every
// mutation is journaled through the Store's pluggable Engine before it
// is applied. The default persistent engine (NewJournalEngine) is a
// segmented append-only JSONL journal. It shares one durable write
// path, the flush-combining appender (appender.go), with the instance
// collection: each appender writes its entry into a shared buffered
// writer under a mutex and yields once; the first one back flushes
// every entry written so far (+ a single fsync in durable mode) and
// applies them in journal order — turning N fsyncs into one without
// giving up the durability contract, since no append is acknowledged
// or applied before its flush is on disk. An in-memory engine
// (NewMemoryEngine) backs tests and embedded use.
//
// # Segments, snapshots, and folding
//
// A journal directory holds one generation of a segmented log:
//
//	gelee.journal          active segment — all appends land here
//	journal.NNNNNN.jsonl   sealed segments, immutable, NNNNNN ascending
//	snapshot.NNNNNN.jsonl  snapshot folding the state of segments 1..NNNNNN
//	archive.NNNNNN.jsonl   immutable, CRC-summed archived history
//	*.jsonl.tmp            in-progress fold — ignored and removed on open
//
// When the active segment exceeds SegmentMaxBytes (or on demand) it is
// sealed: flushed, fsynced, renamed to the next sealed name and
// replaced with a fresh active file — an O(1) rename/create under the
// appender lock, so writers never block on compaction. A background
// folder then compacts sealed segments into a snapshot of the live
// state (repositories contribute their last-writer-wins image, the
// instance collection typed per-instance snapshot records) and deletes
// the folded segments. Restart replay is therefore O(snapshot + tail
// segments), not O(all history ever written): Load streams the newest
// snapshot, then the uncovered sealed segments in order, then the
// active file — fanned out across parallel appliers sharded by
// (part, key), so per-key order is exactly the sequential order.
//
// Snapshot entries record a fold boundary in their Seq field — the
// journal sequence up to which their bucket (a repository name, or an
// instance id) is already captured. Tail entries at or below that
// boundary are skipped on replay; this is what makes folding safe for
// non-idempotent buckets (logs, instance records) while writers keep
// appending mid-fold. Store.Compact survives as seal-then-fold, so
// compaction no longer excludes writers.
//
// # Archives: history carried by reference
//
// Some history never changes once written, so rewriting it into every
// snapshot would make compaction I/O and snapshot size grow without
// bound. Such history is written once into an immutable archive file
// (archive.NNNNNN.jsonl, CRC32-C summed), and every later snapshot
// carries it as a one-line ArchiveRef (file number, entry count, seq
// range, checksum, byte length) instead of the entries. The writer is
// the instance collection: each fold archives the events truncated
// off the runtime's in-memory rings (Instances.ArchiveHistory). The
// execution log is the audit trail of definition changes, small enough
// to keep whole in RAM and in each snapshot; log archives exist only
// in data directories written while it mirrored every instance event,
// and are read-only legacy — replay adopts their refs, every fold
// carries them forward unchanged, and Log.All and the cursor-paged
// Log.Page stream them from disk on demand. Archives install under the
// same fsync+rename protocol as snapshots, before the snapshot that
// references them; open verifies referenced archives cheaply
// (existence + length, anything else fails the open as corruption),
// deletes unreferenced ones (a fold that crashed between archive
// install and snapshot install), and the full CRC is verified whenever
// an archive is actually streamed.
//
// Background folds are paced by policy (Options.FoldMinInterval,
// Options.FoldMinGarbage): a trickle of writes does not re-snapshot an
// unchanged population, and a sealed backlog below the garbage-ratio
// floor waits for more garbage. Store.Compact bypasses the policy.
//
// # Record envelopes and segment footers
//
// Every journal, snapshot and archive byte is covered by CRC32-C
// (Castagnoli, hardware-accelerated). Journal and snapshot lines are
// written inside a versioned record envelope:
//
//	#1 xxxxxxxx {json}\n     a record: 8-hex CRC32-C of the payload
//	#F xxxxxxxx {json}\n     the segment footer (see below)
//
// and a line starting with '{' is a legacy (pre-framing) record with no
// checksum — version sniffing that lets pre-upgrade data directories
// open unchanged; a reopened legacy active file simply continues with
// framed lines. When a segment is sealed (or a snapshot fold finishes)
// a footer line is appended carrying the record count, the sequence
// range, and the CRC32-C of every preceding byte of the file — so a
// sealed segment or installed snapshot verifies in one streaming pass,
// and the scrubber and fsck verify it without replaying into anything.
// Archives carry their whole-file CRC in the ArchiveRef instead (see
// archive.go).
//
// # Recovery invariants: torn tails vs. bit rot
//
// The decision rule is positional. An invalid *suffix* of the active
// file — an unterminated line, a CRC-failing or unparseable tail with
// nothing valid after it — is a torn write: the entries were never
// acknowledged, the tail is truncated before reopening so appends land
// on a record boundary, and the drop is counted in IntegrityStats. An
// invalid line *before* the last valid record is bit rot — committed
// history is damaged — and fails the open with a CorruptionError
// carrying file/offset/line/sequence detail. Sealed segments tolerate
// only a torn (unterminated) final line, and only when they carry no
// footer — the legacy crash shape where a torn active file was sealed
// by a later life; a footer makes them fully strict. Snapshots and
// archives tolerate nothing: both are fsynced before the atomic rename
// that publishes them, so any damage means the disk lied. The same
// goes for a referenced archive that is missing, resized or fails its
// CRC when read.
//
// Opt-in quarantine mode (IntegrityOptions.Quarantine) turns corruption
// from a failed open into a degraded one: before anything is applied, a
// pre-verify pass moves each damaged file aside (renamed with a
// .quarantined suffix), reports it through OnCorrupt — which the
// embedding system uses to latch read-only — and the replay then serves
// the surviving history. A background scrubber (scrub.go) re-verifies
// sealed segments, snapshots and archives while serving, bounded IO per
// tick, and the same checks run offline via Fsck (geleectl fsck).
//
// A fold deletes nothing until the new snapshot is durably installed,
// and trims no in-memory log history until then either (the fold
// image's commit hook); every crash window leaves either the old or the
// new generation intact, and the next open removes the leftovers (temp
// files, superseded snapshots, already-folded segments, unreferenced
// archives).
//
// # Degraded mode: append failures are observed, not hidden
//
// An append that errors (disk full, device gone) changes nothing in
// memory: repositories and the log apply an entry only in its onCommit
// hook, which runs once a flush covers it, so the caller gets the
// error and nothing needs rolling back. The bytes a failed flush or
// sync already wrote are not truncated, though, so a restart can still
// replay such an entry. What the store adds is observation: every
// append outcome, success or failure, is reported through
// Options.OnAppendResult (and InstancesOptions.OnAppendResult for the
// instance collection). The embedding system feeds these outcomes into
// a health state machine (internal/resilience) that walks
// healthy → degraded → read-only on consecutive failures, rejecting
// new mutations at the API edge with 503 while reads keep serving,
// and probes the journal until consecutive successes walk it back.
// The store itself never blocks writes on health — the gate lives in
// front of the API, so replay, folding and recovery are unaffected.
//
// Journal lines are encoded by a hand-rolled codec (appendEntry) — the
// reflection-based marshal cost more than the write it framed — and
// replay reads each framed line back in one pass (scanEntry), handing
// the record's data to its consumer as a sub-slice of the line.
// encoding/json decodes only what that pass does not recognise: legacy
// unframed lines, footers, other layouts. Validating the data is the
// consumer's job, so a CRC-sound record that does not decode fails the
// open as a RecordError naming its file and line; Fsck reports a record
// whose data is not JSON the same way.
//
// Lifecycle instances have their own collection, Instances: the same
// entry framing, segment rotation, snapshot folding and appender on a
// dedicated journal directory (see the Instances doc for why), streamed
// back through the runtime's replay on open — sharded across parallel
// appliers — and then discarded rather than held in memory.
package store

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
	"strconv"
	"time"

	"github.com/liquidpub/gelee/internal/jsonenc"
)

// Op enumerates journal entry operations.
type Op string

// Journal operations: repositories use put/delete; logs use append.
const (
	OpPut    Op = "put"
	OpDelete Op = "delete"
	OpAppend Op = "append"
)

// Entry is one journal record. Repo names entries so that a single
// journal serializes every repository's mutations in one total order.
type Entry struct {
	Seq  uint64          `json:"seq"`
	Time time.Time       `json:"ts"`
	Repo string          `json:"repo"`
	Op   Op              `json:"op"`
	ID   string          `json:"id,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`

	at recordAt // set by replay: where the entry was read
}

// Record envelope framing (version 1): "#1 xxxxxxxx {json}\n" for a
// record, "#F xxxxxxxx {json}\n" for the segment footer, where xxxxxxxx
// is the lowercase 8-hex CRC32-C of the JSON payload. A line starting
// with '{' is a legacy unframed record — the version sniff that keeps
// pre-upgrade files readable.
const (
	frameMagic  = '#'
	frameRecord = '1'
	frameFooter = 'F'
	frameHdrLen = 12 // '#' + kind + ' ' + 8 hex digits + ' '
)

// segFooter is the seal line written at the end of a finished segment
// or snapshot file: record count, sequence range, and the CRC32-C and
// byte length of everything preceding it in the file. Replay verifies
// Records/Bytes/CRC against what it streamed; FirstSeq/LastSeq are
// informational (snapshot entries carry fold boundaries in Seq, not
// append sequences, so a range check would be meaningless there).
type segFooter struct {
	Records  int64  `json:"records"`
	FirstSeq uint64 `json:"first_seq,omitempty"`
	LastSeq  uint64 `json:"last_seq,omitempty"`
	CRC      uint32 `json:"crc"`
	Bytes    int64  `json:"bytes"`
}

// appendFrame wraps payload (one JSON document, no newline) in a v1
// record envelope: magic, kind, the payload's CRC32-C in hex, payload,
// newline.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, frameMagic, kind, ' ')
	crc := crc32.Checksum(payload, crcTable)
	const hexdigits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		buf = append(buf, hexdigits[(crc>>uint(shift))&0xf])
	}
	buf = append(buf, ' ')
	buf = append(buf, payload...)
	return append(buf, '\n')
}

// parseHex32 decodes exactly 8 lowercase hex digits.
func parseHex32(b []byte) (uint32, bool) {
	if len(b) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range b {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// Journal is an append-only JSONL file: the write-side primitive the
// appender builds flush combining on. It is not itself goroutine-safe;
// the appender's mutex serializes access.
type Journal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	seq  uint64
	size int64  // bytes in the file including unflushed writes
	raw  int64  // entries written via writeRaw (snapshot files)
	buf  []byte // line-encoding scratch, reused across writeEntry calls
	line []byte // envelope scratch wrapping buf's payload
	err  error  // sticky I/O error: once the tail is suspect, stop writing

	// The running whole-file accounting the footer seals, seeded by
	// adoptReplay when an existing file is reopened.
	fileCRC uint32 // CRC32-C over every good byte written or replayed
	records int64  // record lines in the file
	loSeq   uint64 // lowest/highest nonzero Seq in the file
	hiSeq   uint64
}

// openJournal opens (or creates) the journal at path for appending with
// v1 record framing. lastSeq must be the highest sequence number
// already present (as reported by ReplayJournal); new entries continue
// from there.
func openJournal(path string, lastSeq uint64) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	size := int64(0)
	if info, err := f.Stat(); err == nil {
		size = info.Size()
	}
	return &Journal{path: path, f: f, w: bufio.NewWriter(f), seq: lastSeq, size: size}, nil
}

// adoptReplay seeds the footer accounting from what replay found in an
// existing file (already truncated to fr.good), so a reopened active
// segment — even one carrying legacy unframed lines — can still be
// sealed under a correct whole-file footer.
func (j *Journal) adoptReplay(fr fileReplay) {
	j.fileCRC = fr.crc
	j.records = int64(fr.n)
	j.loSeq = fr.firstSeq
	j.hiSeq = fr.lastSeq
}

// writeEntry assigns the next sequence number to e and writes it into
// the buffered writer without flushing — batching is the caller's job.
// The line is encoded by hand (appendEntry): the reflection-based
// json.Marshal costs more than the rest of the append path combined,
// and the entry shape is fixed. Replay reads it back with scanEntry;
// the codec equivalence test and FuzzScanEntry pin the round trip.
// An I/O failure is sticky: the journal refuses further writes so a
// partially written line is never followed by more data (which replay
// would treat as corruption rather than a torn tail).
func (j *Journal) writeEntry(e Entry) (uint64, error) {
	if j.err != nil {
		return 0, j.err
	}
	e.Seq = j.seq + 1
	if err := j.writeLine(e); err != nil {
		j.err = fmt.Errorf("store: write journal entry: %w", err)
		return 0, j.err
	}
	j.seq = e.Seq
	return e.Seq, nil
}

// writeRaw writes e preserving its caller-assigned Seq — the snapshot
// write path, where Seq carries a fold boundary rather than the next
// append number. Like writeEntry it buffers without flushing.
func (j *Journal) writeRaw(e Entry) error {
	if j.err != nil {
		return j.err
	}
	if err := j.writeLine(e); err != nil {
		j.err = fmt.Errorf("store: write snapshot entry: %w", err)
		return j.err
	}
	j.raw++
	return nil
}

// writeLine encodes and writes one record line, framed in a v1
// envelope, and maintains the running size/CRC/record accounting the
// segment footer seals.
func (j *Journal) writeLine(e Entry) error {
	j.buf = appendEntry(j.buf[:0], e)
	j.line = appendFrame(j.line[:0], frameRecord, j.buf[:len(j.buf)-1])
	n, err := j.w.Write(j.line)
	j.size += int64(n)
	if err != nil {
		return err
	}
	j.fileCRC = crc32.Update(j.fileCRC, crcTable, j.line)
	j.records++
	if e.Seq > 0 {
		if j.loSeq == 0 || e.Seq < j.loSeq {
			j.loSeq = e.Seq
		}
		if e.Seq > j.hiSeq {
			j.hiSeq = e.Seq
		}
	}
	return nil
}

// writeFooter appends the segment footer sealing everything written so
// far: record count, sequence range, whole-file CRC and byte length.
// Buffered like every write — the caller's flush/sync covers it. A
// no-op for empty files; nothing may be appended after
// it (replay treats data past a footer as corruption), which the seal
// and fold paths guarantee by footer-ing only right before rename.
func (j *Journal) writeFooter() error {
	if j.err != nil {
		return j.err
	}
	if j.records == 0 {
		return nil
	}
	ft := segFooter{Records: j.records, FirstSeq: j.loSeq, LastSeq: j.hiSeq, CRC: j.fileCRC, Bytes: j.size}
	payload, err := json.Marshal(ft)
	if err != nil {
		return fmt.Errorf("store: encode segment footer: %w", err)
	}
	j.line = appendFrame(j.line[:0], frameFooter, payload)
	n, werr := j.w.Write(j.line)
	j.size += int64(n)
	if werr != nil {
		j.err = fmt.Errorf("store: write segment footer: %w", werr)
		return j.err
	}
	return nil
}

// Size reports the file's byte length including unflushed writes — the
// rotation trigger input.
func (j *Journal) Size() int64 { return j.size }

// Raw reports how many entries writeRaw has written.
func (j *Journal) Raw() int64 { return j.raw }

// appendEntry encodes e as one newline-terminated JSONL record,
// matching the field layout of Entry's json tags (zero times are
// omitted: a missing ts decodes to the zero time). Data must already
// be valid JSON — it always is, coming from a codec or json.Marshal.
func appendEntry(buf []byte, e Entry) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	if !e.Time.IsZero() {
		buf = append(buf, `,"ts":`...)
		buf = jsonenc.AppendTime(buf, e.Time)
	}
	buf = append(buf, `,"repo":`...)
	buf = jsonenc.AppendString(buf, e.Repo)
	buf = append(buf, `,"op":`...)
	buf = jsonenc.AppendString(buf, string(e.Op))
	if e.ID != "" {
		buf = append(buf, `,"id":`...)
		buf = jsonenc.AppendString(buf, e.ID)
	}
	if len(e.Data) > 0 {
		buf = append(buf, `,"data":`...)
		buf = append(buf, e.Data...)
	}
	return append(buf, '}', '\n')
}

// Flush pushes buffered writes to the OS.
func (j *Journal) Flush() error {
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = fmt.Errorf("store: flush journal: %w", err)
		return j.err
	}
	return nil
}

// Sync fsyncs the journal file — one call per combined flush in
// durable mode.
func (j *Journal) Sync() error {
	if j.err != nil {
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("store: sync journal: %w", err)
		return j.err
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return fmt.Errorf("store: flush on close: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("store: close journal: %w", err)
	}
	return nil
}

// Seq returns the sequence number of the last written entry.
func (j *Journal) Seq() uint64 { return j.seq }

// ErrCorrupt is the sentinel wrapped by every corruption verdict: a
// damaged record before the last valid one, a broken segment footer, a
// torn snapshot, a referenced archive that is missing, resized or fails
// its CRC. Match with errors.Is; the concrete error is usually a
// *CorruptionError carrying file/offset detail.
var ErrCorrupt = errors.New("store: corrupt journal record")

// CorruptionError reports where mid-file damage was found. It wraps
// ErrCorrupt, so errors.Is(err, ErrCorrupt) keeps matching.
type CorruptionError struct {
	Path    string // file the damage was found in
	Offset  int64  // byte offset where the bad data starts
	Line    int    // 1-based line number of the bad record
	LastSeq uint64 // highest sequence read successfully before the damage
	Detail  string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("%v: %s: line %d @ offset %d (last good seq %d): %s",
		ErrCorrupt, filepath.Base(e.Path), e.Line, e.Offset, e.LastSeq, e.Detail)
}

func (e *CorruptionError) Unwrap() error { return ErrCorrupt }

// RecordError reports a record that was read intact — its envelope
// and CRC sound — but that its consumer failed to apply: say a payload
// that is not JSON, or a mutation naming an instance no earlier record
// created. Replay decodes a record's data only in its consumer, so
// this is how such a failure names the file and line it came from. It
// wraps the consumer's error.
type RecordError struct {
	Path   string // file the record was read from
	Line   int    // 1-based line number of the record
	Offset int64  // byte offset where the record starts
	Err    error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("store: %s: line %d @ offset %d: %v", filepath.Base(e.Path), e.Line, e.Offset, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// recordAt is where replay read an entry: the location a RecordError
// names.
type recordAt struct {
	path   string
	line   int
	offset int64
}

// located wraps err, returned by applying e, in a RecordError naming
// where e was read — unless err already names a record (an apply
// error a fan-out lane reported) or e was not read from a file.
func located(err error, e Entry) error {
	var re *RecordError
	if e.at.path == "" || errors.As(err, &re) {
		return err
	}
	return &RecordError{Path: e.at.path, Line: e.at.line, Offset: e.at.offset, Err: err}
}

// replayPolicy selects the torn-tail-vs-corruption verdict for one file
// kind (see the package doc's decision rule).
type replayPolicy int

const (
	// replayActive: an invalid suffix is a torn tail (truncate, count);
	// an invalid line before the last valid record is corruption.
	replayActive replayPolicy = iota
	// replaySealed: strict, except a torn (unterminated) final line in
	// a footer-less legacy segment — a crash tail sealed by a later
	// life — which is dropped.
	replaySealed
	// replaySnapshot: fully strict; snapshots are fsynced before the
	// rename that publishes them, so any damage means the disk lied.
	replaySnapshot
)

// fileReplay is what one file's replay found: record count, sequence
// range, the offset where valid data ends (excluding any footer and
// torn tail), the running CRC over those good bytes, the verified
// footer if one was present, and how many trailing bytes were dropped
// as a torn tail.
type fileReplay struct {
	n        int
	firstSeq uint64
	lastSeq  uint64
	good     int64
	crc      uint32
	size     int64
	torn     int64
	footer   *segFooter
	// read is the time spent reading lines and checking their CRCs,
	// envelope the time spent decoding the envelopes.
	read, envelope time.Duration
}

// unframeJournalLine checks one non-empty journal line's envelope and
// returns its JSON payload and kind: frameRecord or frameFooter for a
// framed v1 line, whose CRC it verifies, or 0 for a legacy bare-JSON
// record (version sniff on the first byte). A non-empty detail means
// the envelope is invalid — malformed or failing its CRC; the
// torn-vs-corrupt verdict is the caller's, since it depends on the
// file kind and the line's position.
func unframeJournalLine(trimmed []byte) (payload []byte, kind byte, detail string) {
	if trimmed[0] != frameMagic {
		return trimmed, 0, ""
	}
	if len(trimmed) <= frameHdrLen || trimmed[2] != ' ' || trimmed[frameHdrLen-1] != ' ' {
		return nil, 0, "malformed record envelope"
	}
	want, ok := parseHex32(trimmed[3 : frameHdrLen-1])
	if !ok {
		return nil, 0, "malformed envelope checksum"
	}
	payload = trimmed[frameHdrLen:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, fmt.Sprintf("record CRC mismatch (computed %08x, recorded %08x)", got, want)
	}
	switch trimmed[1] {
	case frameRecord, frameFooter:
		return payload, trimmed[1], ""
	}
	return nil, 0, fmt.Sprintf("unknown envelope kind %q", trimmed[1])
}

// decodeJournalLine decodes an unframed payload: a record, or a
// segment footer. A framed record takes scanEntry's single pass, and
// its Data aliases payload; a legacy record, which no CRC covers, and
// any record scanEntry cannot read go through encoding/json, which
// validates every byte.
func decodeJournalLine(payload []byte, kind byte) (*Entry, *segFooter, string) {
	if kind == frameFooter {
		var ft segFooter
		if err := json.Unmarshal(payload, &ft); err != nil {
			return nil, nil, fmt.Sprintf("undecodable segment footer: %v", err)
		}
		return nil, &ft, ""
	}
	var e Entry
	if kind == frameRecord && scanEntry(payload, &e) {
		return &e, nil, ""
	}
	e = Entry{}
	if err := json.Unmarshal(payload, &e); err != nil {
		return nil, nil, fmt.Sprintf("undecodable record: %v", err)
	}
	return &e, nil, ""
}

// scanEntry decodes a record payload laid out byte for byte as
// appendEntry writes it — seq, optional ts, repo, op, optional id,
// optional data last — into e, and reports whether it could. Data is
// the sub-slice of payload holding the value, found by a structural
// skip and not validated: its consumer decodes it anyway, and a record
// whose data is not JSON fails there, named by file and line. Any
// other layout (a legacy writer's key order, whitespace, an escape
// scanEntry does not expect) reports false, and the caller falls back
// to encoding/json; on every payload scanEntry accepts whose data is
// valid JSON, it agrees with encoding/json exactly (FuzzScanEntry).
func scanEntry(payload []byte, e *Entry) bool {
	s := jsonenc.NewScanner(payload)
	if !s.Consume(`{"seq":`) {
		return false
	}
	e.Seq = s.Uint(64)
	if s.Consume(`,"ts":`) {
		e.Time = s.Time()
	}
	s.Expect(`,"repo":`)
	e.Repo = s.String()
	s.Expect(`,"op":`)
	e.Op = Op(s.String())
	if s.Consume(`,"id":`) {
		e.ID = s.String()
	}
	if s.Consume(`,"data":`) {
		e.Data = s.Value()
	}
	s.Expect("}")
	return s.End()
}

// replayJournalFile streams one file's entries through fn in order,
// verifying per-record CRCs and the segment footer when present, and
// applying the policy's torn-tail-vs-corruption rule. fn may be nil to
// verify without applying (the scrubber and fsck). A missing file
// replays zero entries. Callers replaying an active file must truncate
// it to fr.good before reopening it for appends — that cuts both a torn
// tail and a footer left by a seal that crashed before its rename.
func replayJournalFile(path string, policy replayPolicy, fn func(Entry) error) (fileReplay, error) {
	var fr fileReplay
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fr, nil
		}
		return fr, fmt.Errorf("store: open journal for replay: %w", err)
	}
	defer f.Close()

	r := bufio.NewReaderSize(f, 1<<16)
	lineNo := 0
	offset := int64(0)
	footerEnd := int64(-1)
	badOff := int64(-1) // first invalid line (active policy's suffix scan)
	var badLine int
	var badDetail string
	corrupt := func(off int64, line int, detail string) error {
		return &CorruptionError{Path: path, Offset: off, Line: line, LastSeq: fr.lastSeq, Detail: detail}
	}
	for {
		t0 := time.Now()
		line, readErr := r.ReadBytes('\n')
		atEOF := errors.Is(readErr, io.EOF)
		if readErr != nil && !atEOF {
			return fr, fmt.Errorf("store: read journal: %w", readErr)
		}
		lineStart := offset
		offset += int64(len(line))
		fr.size = offset
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			lineNo++
			terminated := bytes.HasSuffix(line, []byte{'\n'})
			payload, kind, detail := unframeJournalLine(trimmed)
			t1 := time.Now()
			fr.read += t1.Sub(t0)
			var e *Entry
			var ft *segFooter
			if detail == "" {
				e, ft, detail = decodeJournalLine(payload, kind)
			}
			fr.envelope += time.Since(t1)
			if detail == "" && !terminated {
				// A record is only valid when newline-terminated: an
				// unterminated final line — even one that parses — is a
				// write cut short before its flush completed, so the
				// entry was never acknowledged.
				detail = "unterminated final record"
			}
			switch {
			case detail != "":
				if badOff < 0 {
					badOff, badLine, badDetail = lineStart, lineNo, detail
				}
				switch policy {
				case replaySnapshot:
					return fr, corrupt(badOff, badLine, badDetail)
				case replaySealed:
					if atEOF && !terminated && footerEnd < 0 {
						fr.torn = offset - badOff // legacy crash tail sealed later
						return fr, nil
					}
					return fr, corrupt(badOff, badLine, badDetail)
				}
				// Active file: keep scanning — an invalid suffix is a torn
				// tail, but any valid line after it proves mid-file damage.
			case badOff >= 0:
				return fr, corrupt(badOff, badLine, badDetail)
			case footerEnd >= 0:
				return fr, corrupt(lineStart, lineNo, "data after segment footer")
			case ft != nil:
				if ft.Records != int64(fr.n) || ft.Bytes != fr.good || ft.CRC != fr.crc {
					return fr, corrupt(lineStart, lineNo, fmt.Sprintf(
						"segment footer mismatch: streamed %d records / %d bytes / crc %08x, footer sealed %d / %d / %08x",
						fr.n, fr.good, fr.crc, ft.Records, ft.Bytes, ft.CRC))
				}
				fr.footer = ft
				footerEnd = offset
			default:
				if fn != nil {
					e.at = recordAt{path: path, line: lineNo, offset: lineStart}
					if fnErr := fn(*e); fnErr != nil {
						return fr, located(fnErr, *e)
					}
				}
				fr.n++
				if e.Seq > 0 && (fr.firstSeq == 0 || e.Seq < fr.firstSeq) {
					fr.firstSeq = e.Seq
				}
				if e.Seq > fr.lastSeq {
					fr.lastSeq = e.Seq
				}
				fr.crc = crc32.Update(fr.crc, crcTable, line)
				fr.good = offset
			}
		}
		if atEOF {
			if badOff >= 0 {
				fr.torn = offset - badOff
			}
			return fr, nil
		}
	}
}

// ReplayJournal streams every entry of the journal at path through fn
// in order under the active-file policy, returning the count replayed,
// the highest sequence seen, and the byte offset where valid data ends
// (which callers reopening the file for appends must truncate to).
func ReplayJournal(path string, fn func(Entry) error) (n int, lastSeq uint64, goodBytes int64, err error) {
	fr, err := replayJournalFile(path, replayActive, fn)
	return fr.n, fr.lastSeq, fr.good, err
}
