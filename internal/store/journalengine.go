package store

import (
	"fmt"
	"os"
)

// JournalConfig tunes the journaled engine. The zero value is a valid
// configuration: combined flushes without fsync, no segment rotation.
type JournalConfig struct {
	// Dir is the directory holding the journal segments.
	Dir string
	// Sync fsyncs once per combined flush.
	Sync bool
	// SegmentMaxBytes seals the active segment once it grows past this
	// size, rotating to a fresh one under the appender lock. 0 disables
	// automatic rotation (Seal still rotates on demand).
	SegmentMaxBytes int64
	// OnSeal, if non-nil, is invoked under the appender lock after
	// every automatic rotation — the hook the Store's background folder
	// hangs off. It must not block or call back into the engine.
	OnSeal func()
	// Integrity tunes corruption detection: record framing, quarantine
	// mode, the background scrubber (see IntegrityOptions).
	Integrity IntegrityOptions
}

// journalEngine is the default persistent engine: a segmented
// append-only JSONL journal written through the flush-combining
// appender, so concurrent appends share one write (+ one fsync in
// durable mode) and each onCommit runs in journal order before its
// Append returns. The active segment rotates at SegmentMaxBytes; Fold
// compacts sealed segments into a snapshot while appends proceed (see
// the package doc's segment section).
type journalEngine struct {
	appender
	integ IntegrityOptions
}

// NewJournalEngine builds (but does not open) a journaled engine; the
// journal is replayed and opened by Replay.
func NewJournalEngine(cfg JournalConfig) (Engine, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &journalEngine{
		appender: appender{
			dir:        cfg.Dir,
			sync:       cfg.Sync,
			segmentMax: cfg.SegmentMaxBytes,
			onSeal:     cfg.OnSeal,
		},
		integ: cfg.Integrity,
	}, nil
}

// Replay implements Engine: stream the newest snapshot, the uncovered
// sealed segments and the active file through fn (skipping folded
// duplicates), then open the journal for appending (see appender.open
// for the torn-tail, quarantine and archive handling).
func (e *journalEngine) Replay(fn func(Entry) error) error {
	return e.open(e.integ, func(st segState) (segReplay, error) {
		return replaySegmented(e.dir, st, entryRepo, fn, nil)
	})
}

// entryRepo buckets a definitions-journal entry by its repository.
func entryRepo(e Entry) string { return e.Repo }

// Fold implements Engine: fix the fold boundary (every segment sealed
// so far), capture the live image via build, write it to a new
// snapshot and delete the folded segments. Appends — and further
// seals — proceed concurrently: the image is captured after the
// boundary, so it is a superset of everything folded, and replay skips
// the overlap via the per-bucket boundary seqs stamped on snapshot
// entries.
func (e *journalEngine) Fold(build func() []Entry) error {
	return e.fold(func(sj *Journal) (func(), error) {
		if build == nil {
			return nil, nil
		}
		for _, entry := range build() {
			if err := sj.writeRaw(entry); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

// ReadArchive implements Engine: stream one archive file, lazily and
// checksum-verified. Archives are immutable and only removed by the
// open-time reconcile pass, so a concurrent fold never races a reader.
func (e *journalEngine) ReadArchive(ref ArchiveRef, fn func(Entry) error) error {
	return readArchive(e.dir, ref, fn)
}

// Stats implements Engine.
func (e *journalEngine) Stats() EngineStats { return e.stats("journal") }
