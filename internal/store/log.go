package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// LogEntry is one record of the execution log — the audit trail of
// definition-level changes the monitoring cockpit reads (Fig. 2's
// "Execution log" repository, including model evolution per the
// figure's caption). Instance events are not logged here: the instance
// journal is their history. Instance is set only on entries older logs
// hold from when they mirrored instance events; so was a "data" field,
// which decoding ignores.
type LogEntry struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"ts"`
	Instance string    `json:"instance,omitempty"`
	Kind     string    `json:"kind"`
	Actor    string    `json:"actor,omitempty"`
	Detail   string    `json:"detail,omitempty"`
}

// LogStats is one log's hot/cold split, served by the admin endpoint:
// how many entries are live in RAM, how many live only in archive
// files, and across how many archives.
type LogStats struct {
	Live     int `json:"live"`
	Archived int `json:"archived"`
	Archives int `json:"archives"`
}

// Log is an append-only, journal-backed audit log: Fig. 2's execution
// log of definition changes, which grows with those changes and is
// held in RAM whole. Data directories written while the log mirrored
// instance events may also hold older entries in immutable CRC-summed
// archive files, adopted by reference on replay and carried forward
// unchanged by every fold. Reads stitch the two halves — cold entries
// stream from disk on demand, then the live entries follow.
type Log struct {
	name  string
	store *Store
	// appendMu serialises Append across sequence reservation and
	// commit, so entries commit — and apply — in Seq order and a
	// cursor past one Seq never skips a lower one still in flight.
	appendMu sync.Mutex
	mu       sync.RWMutex
	entries  []LogEntry
	nextSeq  uint64
	// appliedSeq is the journal sequence of the newest entry applied to
	// the in-memory state — the log's fold boundary. Logs are appended,
	// never overwritten, so replaying a folded entry again would double
	// history; the boundary lets replay skip exactly the tail entries a
	// snapshot already contains.
	appliedSeq uint64
	// cold is the archived history an older data dir holds, oldest
	// first, fixed once replay ends; coldLen is the total entry count
	// across refs. The global order of the log is cold archives in ref
	// order, then entries.
	cold    []ArchiveRef
	coldLen int
}

// NewLog creates and registers an append-only log under name.
func NewLog(s *Store, name string) (*Log, error) {
	l := &Log{name: name, store: s, nextSeq: 1}
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
// The entry's Time is set from the store clock if zero. Appends are
// serialised: audit entries are rare, and one at a time keeps the
// log's commit order equal to its Seq order.
func (l *Log) Append(e LogEntry) (uint64, error) {
	l.appendMu.Lock()
	defer l.appendMu.Unlock()
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
		// Hand the reserved sequence back, so a transient write failure
		// does not leave a permanent hole in the audit numbering.
		l.mu.Lock()
		l.nextSeq = e.Seq
		l.mu.Unlock()
		return 0, err
	}
	return e.Seq, nil
}

// append adds to the in-memory structures; callers hold l.mu.
func (l *Log) append(e LogEntry) {
	l.entries = append(l.entries, e)
	if e.Seq >= l.nextSeq {
		l.nextSeq = e.Seq + 1
	}
}

// scan streams the whole log — cold archives first, then the live
// entries — through fn in append order, stopping when fn returns false.
// Archives whose entries all have Seq <= after are skipped without
// opening the file, and entries at or below after are filtered out —
// the lazy stitch paged reads ride on. fn sees cold entries without
// the log's lock and live entries under its read lock, under which
// scan also counts the log's entries for its result.
func (l *Log) scan(after uint64, fn func(LogEntry) bool) (total int, err error) {
	l.mu.RLock()
	cold := l.cold
	l.mu.RUnlock()
	for _, ref := range cold {
		if ref.LastSeq <= after {
			continue // nothing wanted in this archive
		}
		stopped := false
		err := readArchive(l.store.fs, l.store.dir, ref, func(e Entry) error {
			var le LogEntry
			if err := json.Unmarshal(e.Data, &le); err != nil {
				return fmt.Errorf("%w: %s: archived log entry: %v", ErrCorrupt, l.name, err)
			}
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
			return 0, err
		}
		if stopped {
			return l.Len(), nil
		}
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, e := range l.entries {
		if e.Seq <= after {
			continue
		}
		if !fn(e) {
			break
		}
	}
	return l.coldLen + len(l.entries), nil
}

// All returns a copy of the whole log in append order — cold archives
// stitched in front of the live entries. An archive read failure
// truncates the result at the failure point; use Page to observe the
// error.
func (l *Log) All() []LogEntry {
	var out []LogEntry
	_, _ = l.scan(0, func(e LogEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// LogPage is one cursor window of a log. It is what the admin log
// route sends: its JSON is the {items,total,next_after} page envelope.
type LogPage struct {
	// Items is the page in append order; empty, never nil, past the
	// tail.
	Items []LogEntry `json:"items"`
	// Total is the number of entries ever appended, archived ones
	// included.
	Total int `json:"total"`
	// NextAfter is the cursor of the following page (pass it back as
	// after); 0 when this page reaches the tail.
	NextAfter uint64 `json:"next_after,omitempty"`
}

// Page returns up to limit entries with Seq > after in append order —
// the cockpit's cursor over unbounded history — and the cursor of the
// next page, which it finds by reading one entry past the page.
// Archives entirely at or below the cursor are skipped without
// touching the disk. limit <= 0 means no limit. Unlike All it surfaces
// archive corruption as an error.
func (l *Log) Page(after uint64, limit int) (LogPage, error) {
	page := LogPage{Items: []LogEntry{}}
	total, err := l.scan(after, func(e LogEntry) bool {
		if limit > 0 && len(page.Items) == limit {
			page.NextAfter = page.Items[limit-1].Seq
			return false
		}
		page.Items = append(page.Items, e)
		return true
	})
	if err != nil {
		return LogPage{}, err
	}
	page.Total = total
	return page, nil
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
// image keeps every entry: the archive refs replay adopted are carried
// forward unchanged, followed by every live entry. The image and
// boundary are captured under one read-lock hold and encoded after
// release, so the appender's apply path (which takes l.mu per entry)
// never stalls behind a fold.
func (l *Log) foldEntries() ([]Entry, uint64) {
	l.mu.RLock()
	cold := l.cold
	live := append([]LogEntry(nil), l.entries...)
	boundary := l.appliedSeq
	l.mu.RUnlock()

	out := make([]Entry, 0, len(cold)+len(live))
	for _, ref := range cold {
		data, err := json.Marshal(ref)
		if err != nil {
			continue
		}
		out = append(out, Entry{Repo: l.name, Op: opArchiveRef, Data: data})
	}
	for _, le := range live {
		data, err := json.Marshal(le)
		if err != nil {
			continue
		}
		out = append(out, Entry{Repo: l.name, Op: OpAppend, Data: data})
	}
	return out, boundary
}
