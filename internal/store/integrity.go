package store

// End-to-end journal integrity: the options and stats types shared by
// the engines, and the quarantine pre-verify pass that turns mid-file
// corruption from a failed open into a degraded one. The write-side
// framing lives in journal.go, the background scrubber in scrub.go, the
// offline checker in fsck.go.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// DefaultScrubBytesPerTick bounds the IO one background scrub tick may
// issue (and an on-demand Scrub(0)).
const DefaultScrubBytesPerTick = 8 << 20

// IntegrityOptions tune corruption detection and handling for a journal
// directory (the store journal via Options.Integrity / JournalConfig,
// the instance journal via InstancesOptions.Integrity). The zero value
// is safe: framing on, quarantine off, scrubber off.
type IntegrityOptions struct {
	// Quarantine moves a file that fails verification at open aside
	// (renamed with a .quarantined suffix) instead of failing the open,
	// so the surviving history serves read-only while an operator
	// repairs or restores. Every move is reported through OnCorrupt —
	// the hook the embedding system uses to latch read-only.
	Quarantine bool
	// ScrubInterval paces the background scrubber verifying sealed
	// segments, snapshots and archives while serving, at most
	// DefaultScrubBytesPerTick of IO per tick. 0 disables it.
	ScrubInterval time.Duration
	// OnCorrupt, when set, observes every corruption detection — the
	// open-time pre-verify pass and the scrubber. Called on open and
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
	// Source is "open" (pre-verify at open) or "scrub".
	Source string `json:"source"`
}

// IntegrityStats is the per-engine integrity ledger served with the
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
	// CorruptFiles counts corruption detections (open pre-verify +
	// scrub); QuarantinedFiles how many files were moved aside.
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

// quarantinePath picks an unused destination for a damaged file: the
// .quarantined suffix drops it out of every directory scan (scans match
// on the .jsonl suffix and exact active name) while keeping the bytes
// on disk for repair.
func quarantinePath(path string) string {
	dst := path + ".quarantined"
	for i := 2; ; i++ {
		if _, err := os.Lstat(dst); errors.Is(err, os.ErrNotExist) {
			return dst
		}
		dst = fmt.Sprintf("%s.quarantined.%d", path, i)
	}
}

// preVerify walks a journal directory's generation before any entry is
// applied, moving every file that fails verification aside and
// reporting it through onCorrupt. Run only in quarantine mode: the
// subsequent replay then sees a clean (if shortened) generation — no
// partially applied state to unwind — and the embedding system latches
// read-only rather than serving the hole as truth. Torn active tails
// are left in place (the real replay truncates and counts them).
// Referenced archives are checked existence+length only, keeping open
// cost O(live + refs); a missing or resized one counts as corrupt
// (resized ones are quarantined) and the tolerant reconcile skips its
// ref. Returns how many files were quarantined and how many corruption
// detections were made (quarantines plus missing archives).
func preVerify(dir string, onCorrupt func(CorruptFile)) (quarantined, corrupt int, err error) {
	st, err := scanSegments(dir)
	if err != nil {
		return 0, 0, err
	}
	move := func(path, detail string) error {
		if err := os.Rename(path, quarantinePath(path)); err != nil {
			return fmt.Errorf("store: quarantine %s: %w", filepath.Base(path), err)
		}
		quarantined++
		corrupt++
		if onCorrupt != nil {
			onCorrupt(CorruptFile{Path: path, Detail: detail, Quarantined: true, Source: "open"})
		}
		return nil
	}
	var refs []ArchiveRef
	if st.snapPath != "" {
		_, verr := replayJournalFile(st.snapPath, replaySnapshot, func(e Entry) (err error) {
			refs, err = collectRef(refs, e)
			return err
		})
		if verr != nil {
			if !errors.Is(verr, ErrCorrupt) {
				return quarantined, corrupt, verr
			}
			if err := move(st.snapPath, verr.Error()); err != nil {
				return quarantined, corrupt, err
			}
			refs = nil
		}
	}
	for _, n := range st.sealed {
		p := filepath.Join(dir, sealedName(n))
		if _, verr := replayJournalFile(p, replaySealed, nil); verr != nil {
			if !errors.Is(verr, ErrCorrupt) {
				return quarantined, corrupt, verr
			}
			if err := move(p, verr.Error()); err != nil {
				return quarantined, corrupt, err
			}
		}
	}
	active := filepath.Join(dir, journalName)
	if _, verr := replayJournalFile(active, replayActive, nil); verr != nil {
		if !errors.Is(verr, ErrCorrupt) {
			return quarantined, corrupt, verr
		}
		if err := move(active, verr.Error()); err != nil {
			return quarantined, corrupt, err
		}
	}
	for _, ref := range refs {
		p := filepath.Join(dir, archiveName(ref.Archive))
		info, statErr := os.Stat(p)
		if errors.Is(statErr, os.ErrNotExist) {
			corrupt++
			if onCorrupt != nil {
				onCorrupt(CorruptFile{Path: p, Detail: "referenced archive missing", Source: "open"})
			}
			continue
		}
		if statErr != nil {
			return quarantined, corrupt, fmt.Errorf("store: stat archive: %w", statErr)
		}
		if info.Size() != ref.Bytes {
			detail := fmt.Sprintf("archive is %d bytes, snapshot recorded %d", info.Size(), ref.Bytes)
			if err := move(p, detail); err != nil {
				return quarantined, corrupt, err
			}
		}
	}
	return quarantined, corrupt, nil
}
