package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// LogEntry is one record of the execution log — the audit trail the
// monitoring cockpit reads (Fig. 2's "Execution log" repository,
// including model evolution per the figure's caption).
type LogEntry struct {
	Seq      uint64          `json:"seq"`
	Time     time.Time       `json:"ts"`
	Instance string          `json:"instance,omitempty"`
	Kind     string          `json:"kind"`
	Actor    string          `json:"actor,omitempty"`
	Detail   string          `json:"detail,omitempty"`
	Data     json.RawMessage `json:"data,omitempty"`
}

// LogStats is one log's hot/cold split, served by the admin endpoint:
// how many entries are live in RAM, how many live only in archive
// files, and across how many archives.
type LogStats struct {
	Live     int `json:"live"`
	Archived int `json:"archived"`
	Archives int `json:"archives"`
}

// Log is an append-only, journal-backed event log with per-instance
// and time-range queries, split hot/cold: the newest entries (the live
// window) stay in RAM; older history is spilled by folds into
// immutable CRC-summed archive files and carried in every snapshot by
// reference. Reads stitch the two halves — cold entries stream from
// disk on demand, so neither fold cost nor resident memory grows with
// total history.
type Log struct {
	name    string
	store   *Store
	mu      sync.RWMutex
	entries []LogEntry
	byInst  map[string][]int // instance id -> indexes into entries
	nextSeq uint64
	// appliedSeq is the journal sequence of the newest entry applied to
	// the in-memory state — the log's fold boundary. Logs are appended,
	// never overwritten, so replaying a folded entry again would double
	// history; the boundary lets replay skip exactly the tail entries a
	// snapshot already contains.
	appliedSeq uint64
	// cold is the archived history, oldest first; coldLen is the total
	// entry count across refs. The global order of the log is cold
	// archives in ref order, then entries — folds move the head of
	// entries into a new ref, never reordering, so any scan position
	// (entries delivered so far) stays valid across a concurrent fold.
	cold    []ArchiveRef
	coldLen int
}

// NewLog creates and registers an append-only log under name.
func NewLog(s *Store, name string) (*Log, error) {
	l := &Log{name: name, store: s, byInst: make(map[string][]int), nextSeq: 1}
	if err := s.register(name, l); err != nil {
		return nil, err
	}
	return l, nil
}

// MustLog is NewLog, panicking on duplicate registration.
func MustLog(s *Store, name string) *Log {
	l, err := NewLog(s, name)
	if err != nil {
		panic(err)
	}
	return l
}

// Append stamps and stores the entry, returning its sequence number.
// The entry's Time is set from the store clock if zero.
func (l *Log) Append(e LogEntry) (uint64, error) {
	l.mu.Lock()
	e.Seq = l.nextSeq
	l.nextSeq++
	l.mu.Unlock()
	if e.Time.IsZero() {
		e.Time = l.store.Now()
	}
	data, err := json.Marshal(e)
	if err != nil {
		return 0, fmt.Errorf("store: %s: encode log entry: %w", l.name, err)
	}
	err = l.store.commit(Entry{Repo: l.name, Op: OpAppend, Data: data}, func(seq uint64) {
		l.mu.Lock()
		l.append(e)
		if seq > l.appliedSeq {
			l.appliedSeq = seq
		}
		l.mu.Unlock()
	})
	if err != nil {
		// Hand the reserved sequence back when no later append has
		// claimed the next one, so a transient write failure does not
		// leave a permanent hole in the audit numbering.
		l.mu.Lock()
		if l.nextSeq == e.Seq+1 {
			l.nextSeq = e.Seq
		}
		l.mu.Unlock()
		return 0, err
	}
	return e.Seq, nil
}

// append adds to the in-memory structures; callers hold l.mu.
func (l *Log) append(e LogEntry) {
	idx := len(l.entries)
	l.entries = append(l.entries, e)
	if e.Instance != "" {
		l.byInst[e.Instance] = append(l.byInst[e.Instance], idx)
	}
	if e.Seq >= l.nextSeq {
		l.nextSeq = e.Seq + 1
	}
}

// scan streams the whole log — cold archives first, then the live
// window — through fn in append order, stopping when fn returns false.
// Archives whose entries all have Seq <= after are skipped without
// opening the file, and entries at or below after are filtered out —
// the lazy stitch paged reads ride on. Position bookkeeping (entries
// delivered so far) survives concurrent folds because a fold only
// moves the head of the live window into a new cold ref, preserving
// global order. fn sees live entries under the log's read lock and
// cold entries without it; cold Data is freshly decoded, live Data is
// shared and read-only.
func (l *Log) scan(after uint64, fn func(LogEntry) bool) error {
	pos := 0 // global log position: entries delivered or skipped
	for {
		l.mu.RLock()
		if pos >= l.coldLen {
			for i := pos - l.coldLen; i < len(l.entries); i++ {
				e := l.entries[i]
				pos++
				if e.Seq <= after {
					continue
				}
				if !fn(e) {
					break
				}
			}
			l.mu.RUnlock()
			return nil
		}
		// Find the ref containing the current position.
		off := 0
		var ref ArchiveRef
		for _, r := range l.cold {
			if pos < off+r.Entries {
				ref = r
				break
			}
			off += r.Entries
		}
		l.mu.RUnlock()
		if ref.LastSeq <= after {
			pos = off + ref.Entries // nothing wanted in this archive
			continue
		}
		skip := pos - off
		stopped := false
		err := l.store.readArchive(ref, func(e Entry) error {
			if skip > 0 {
				skip--
				return nil
			}
			var le LogEntry
			if err := json.Unmarshal(e.Data, &le); err != nil {
				return fmt.Errorf("%w: %s: archived log entry: %v", ErrCorrupt, l.name, err)
			}
			pos++
			if le.Seq <= after {
				return nil
			}
			if !fn(le) {
				stopped = true
				return ErrStopScan
			}
			return nil
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
}

// ByInstance returns every entry for the given lifecycle instance in
// append order, including archived history (streamed from disk). An
// archive read failure truncates the result at the failure point.
func (l *Log) ByInstance(id string) []LogEntry {
	var out []LogEntry
	l.ScanInstance(id, func(e LogEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// ScanInstance streams the given instance's entries through fn in
// append order, stopping early when fn returns false. Live entries
// cost no copies; archived entries stream from disk lazily. When the
// scan has reached the live window, fn runs under the log's read lock
// and must not call back into the log; live entries' Data is shared,
// not copied, and must be treated as read-only. A corrupt archive
// stops the scan at the failure point.
func (l *Log) ScanInstance(id string, fn func(LogEntry) bool) {
	l.mu.RLock()
	noCold := l.coldLen == 0
	if noCold {
		// Fast path — the common case and the pre-archive behavior:
		// walk the index under one read-lock hold.
		defer l.mu.RUnlock()
		for _, idx := range l.byInst[id] {
			if !fn(l.entries[idx]) {
				return
			}
		}
		return
	}
	l.mu.RUnlock()
	_ = l.scan(0, func(e LogEntry) bool {
		if e.Instance != id {
			return true
		}
		return fn(e)
	})
}

// Range returns entries with from <= Time < to in append order,
// including archived history.
func (l *Log) Range(from, to time.Time) []LogEntry {
	var out []LogEntry
	_ = l.scan(0, func(e LogEntry) bool {
		if !e.Time.Before(from) && e.Time.Before(to) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// All returns a copy of the whole log in append order — cold archives
// stitched in front of the live window. An archive read failure
// truncates the result at the failure point; use Page to observe the
// error.
func (l *Log) All() []LogEntry {
	var out []LogEntry
	_ = l.scan(0, func(e LogEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Page returns up to limit entries with Seq > after in append order —
// the cockpit's cursor over unbounded history. Archives entirely at or
// below the cursor are skipped without touching the disk; at most the
// one archive straddling the cursor is streamed per page beyond the
// entries returned. limit <= 0 means no limit. Unlike the legacy
// readers it surfaces archive corruption as an error.
func (l *Log) Page(after uint64, limit int) ([]LogEntry, error) {
	var out []LogEntry
	err := l.scan(after, func(e LogEntry) bool {
		out = append(out, e)
		return limit <= 0 || len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Len returns the number of entries across both halves of the log.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.coldLen + len(l.entries)
}

// size implements journaled.
func (l *Log) size() int { return l.Len() }

// logStats reports the hot/cold split for the admin endpoint.
func (l *Log) logStats() LogStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return LogStats{Live: len(l.entries), Archived: l.coldLen, Archives: len(l.cold)}
}

// applyEntry implements journaled.
func (l *Log) applyEntry(e Entry) error {
	switch e.Op {
	case OpAppend:
		var le LogEntry
		if err := json.Unmarshal(e.Data, &le); err != nil {
			return fmt.Errorf("store: %s: replay decode: %w", l.name, err)
		}
		l.mu.Lock()
		l.append(le)
		if e.Seq > l.appliedSeq {
			l.appliedSeq = e.Seq
		}
		l.mu.Unlock()
		return nil
	case opArchiveRef:
		// Adopt archived history by reference: nothing is read from the
		// archive now — open cost stays O(live + refs).
		var ref ArchiveRef
		if err := json.Unmarshal(e.Data, &ref); err != nil {
			return fmt.Errorf("store: %s: replay archive ref: %w", l.name, err)
		}
		l.mu.Lock()
		l.cold = append(l.cold, ref)
		l.coldLen += ref.Entries
		if ref.LastSeq >= l.nextSeq {
			l.nextSeq = ref.LastSeq + 1
		}
		if e.Seq > l.appliedSeq {
			l.appliedSeq = e.Seq
		}
		l.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("store: %s: replay unknown op %q", l.name, e.Op)
	}
}

// replayKey implements journaled: a log is a single ordered stream, so
// all its entries share one replay lane.
func (l *Log) replayKey(Entry) string { return "" }

// foldEntries implements journaled. Logs are history, so the fold
// image preserves every entry — but not by rewriting it: existing
// archives are carried forward as refs, and when the live window
// exceeds the store's configured window the overflow (the oldest live
// entries) is spilled through the Archiver into a new archive file and
// also carried by reference. Only the remaining live window is written
// out as entries, making fold I/O O(window + refs) regardless of total
// history. The returned commit hook — run by the engine only after the
// snapshot installs — trims the spilled entries from RAM; until then
// readers keep seeing them live, and a failed fold changes nothing.
//
// The image and boundary are captured under one read-lock hold;
// archive file I/O happens after release so the group-commit apply
// path (which takes l.mu per entry) never stalls behind a fold. If
// archiving fails the overflow stays in the snapshot as entries, so
// no history is lost.
func (l *Log) foldEntries(ar Archiver) ([]Entry, uint64, func()) {
	window := l.store.logWindow()
	l.mu.RLock()
	cold := append([]ArchiveRef(nil), l.cold...)
	live := append([]LogEntry(nil), l.entries...)
	boundary := l.appliedSeq
	l.mu.RUnlock()

	spill := 0
	if ar != nil && len(live) > window {
		spill = len(live) - window
	}

	out := make([]Entry, 0, len(cold)+1+len(live)-spill)
	addRef := func(ref ArchiveRef) bool {
		data, err := json.Marshal(ref)
		if err != nil {
			return false
		}
		out = append(out, Entry{Repo: l.name, Op: opArchiveRef, Data: data})
		return true
	}
	for _, ref := range cold {
		addRef(ref)
	}

	var commit func()
	if spill > 0 {
		arch := make([]Entry, 0, spill)
		for _, le := range live[:spill] {
			data, err := json.Marshal(le)
			if err != nil {
				arch = nil // unencodable entry: keep the whole window inline
				break
			}
			arch = append(arch, Entry{Seq: le.Seq, Repo: l.name, Op: OpAppend, Data: data})
		}
		if len(arch) == spill {
			if ref, err := ar.Archive(arch); err == nil && addRef(ref) {
				live = live[spill:]
				n := spill
				commit = func() { l.retire(ref, n) }
			}
		}
		// On any failure live still holds everything: the snapshot gets
		// the full log as entries.
	}

	for _, le := range live {
		data, err := json.Marshal(le)
		if err != nil {
			continue
		}
		out = append(out, Entry{Repo: l.name, Op: OpAppend, Data: data})
	}
	return out, boundary, commit
}

// retire moves the n oldest live entries — just spilled into ref by a
// durably installed fold — out of RAM. The head of entries is exactly
// what was archived: appends only grow the tail and folds are
// serialized by the engine. The instance index is rebuilt over the
// surviving window (O(window), far cheaper than the archive write that
// preceded it).
func (l *Log) retire(ref ArchiveRef, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.entries) {
		n = len(l.entries)
	}
	l.entries = append([]LogEntry(nil), l.entries[n:]...)
	l.cold = append(l.cold, ref)
	l.coldLen += ref.Entries
	l.byInst = make(map[string][]int, len(l.byInst))
	for i, e := range l.entries {
		if e.Instance != "" {
			l.byInst[e.Instance] = append(l.byInst[e.Instance], i)
		}
	}
}
