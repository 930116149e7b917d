package store

// End-to-end journal integrity: the options and stats types shared by
// both journals, and the quarantine move. The write-side framing lives
// in journal.go, the per-kind file verifier in segment.go, the
// background scrubber in scrub.go, and the checker in fsck.go — which
// a quarantine open runs, with repair, before its replay.

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"
)

// DefaultScrubBytesPerTick bounds the IO one background scrub tick may
// issue (and an on-demand Scrub(0)).
const DefaultScrubBytesPerTick = 8 << 20

// IntegrityOptions tune corruption detection and handling for a journal
// directory (the store journal via Options.Integrity, the instance
// journal via InstancesOptions.Integrity). The zero value
// is safe: framing on, quarantine off, scrubber off.
type IntegrityOptions struct {
	// Quarantine makes the open run fsck with repair before it
	// replays: a file that fails verification moves aside (renamed
	// with a .quarantined suffix) instead of failing the open, so the
	// surviving history serves read-only while an operator repairs or
	// restores. Every detection is reported through OnCorrupt — the
	// hook the embedding system uses to latch read-only. A record its
	// consumer cannot apply still fails the open.
	Quarantine bool
	// ScrubInterval paces the background scrubber verifying sealed
	// segments, snapshots and archives while serving, at most
	// DefaultScrubBytesPerTick of IO per tick. 0 disables it.
	ScrubInterval time.Duration
	// OnCorrupt, when set, observes every corruption detection — the
	// fsck a quarantine open runs, and the scrubber. Called on open and
	// scrub paths; must be fast and must not call back into the store.
	OnCorrupt func(CorruptFile)
}

// CorruptFile describes one corruption detection.
type CorruptFile struct {
	// Path is the damaged file (its original path, even after a
	// quarantine rename).
	Path string `json:"path"`
	// Detail is the verification failure, with offset/line/seq detail
	// when the damage is positional.
	Detail string `json:"detail"`
	// Quarantined reports whether the file was moved aside.
	Quarantined bool `json:"quarantined"`
	// Source is "open" (a quarantine open's Fsck) or "scrub".
	Source string `json:"source"`
}

// IntegrityStats is the per-journal integrity ledger served with the
// admin store stats: what open recovered or refused, and what the
// background scrubber has verified.
type IntegrityStats struct {
	// Framing reports that appends write v1 CRC envelopes — always
	// true, since every append is framed.
	Framing bool `json:"framing"`
	// TornTails / TornTailBytes count files whose invalid suffix open
	// dropped as a crash tail — recovered, but observable.
	TornTails     uint64 `json:"torn_tails_recovered,omitempty"`
	TornTailBytes int64  `json:"torn_tail_bytes,omitempty"`
	// CorruptFiles counts corruption detections (a quarantine open's
	// fsck + scrub); QuarantinedFiles how many files were moved aside.
	CorruptFiles     uint64 `json:"corrupt_files,omitempty"`
	QuarantinedFiles uint64 `json:"quarantined_files,omitempty"`
	// Scrub progress: ticks run, full passes completed, files and bytes
	// verified, and when the last full pass finished.
	ScrubTicks    uint64 `json:"scrub_ticks,omitempty"`
	ScrubPasses   uint64 `json:"scrub_passes,omitempty"`
	ScrubFiles    uint64 `json:"scrub_files_verified,omitempty"`
	ScrubBytes    uint64 `json:"scrub_bytes_verified,omitempty"`
	LastScrubUnix int64  `json:"last_scrub_unix,omitempty"`
	// LastError is the most recent verification failure, if any.
	LastError string `json:"last_error,omitempty"`
}

// quarantine moves a damaged file aside to an unused name: the
// .quarantined suffix drops it out of the live generation (scans match
// on the .jsonl suffix and the exact active name) while keeping the
// bytes on disk for repair, and its presence stops the open from
// judging any archive unreferenced (see reconcileArchives).
func quarantine(fsys FS, path string) error {
	dst := path + ".quarantined"
	for i := 2; ; i++ {
		if _, err := fsys.Size(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = fmt.Sprintf("%s.quarantined.%d", path, i)
	}
	if err := fsys.Rename(path, dst); err != nil {
		return fmt.Errorf("store: quarantine %s: %w", filepath.Base(path), err)
	}
	return nil
}
