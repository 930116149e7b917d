package store

// Offline integrity checking: Fsck walks a journal directory the way an
// open would — newest snapshot, uncovered sealed segments, active file,
// referenced archives — but verifies instead of replaying and, unlike
// scanSegments, never mutates unless repair is requested. With repair
// it applies exactly the recoveries an open would (truncate the torn
// active tail) plus the one an open refuses (quarantine files that fail
// their CRCs or hold a record whose data is not JSON), so a refused
// data directory opens again — shortened, for an operator to reconcile
// from the .quarantined bytes or a backup.
// `geleectl fsck` is the CLI wrapper.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FsckFile is one file's verdict in an FsckReport.
type FsckFile struct {
	// Name is the file name within the directory.
	Name string `json:"name"`
	// Kind classifies the file: active, segment, snapshot, archive,
	// stale (an older generation a crashed fold left behind), temp,
	// quarantined (moved aside by an earlier run or a quarantine open),
	// or orphan-archive (no snapshot references it).
	Kind string `json:"kind"`
	// Bytes is the file's size on disk.
	Bytes int64 `json:"bytes"`
	// Records is how many valid records verification read.
	Records int `json:"records,omitempty"`
	// Footer reports that the file carried a valid segment footer.
	Footer bool `json:"footer,omitempty"`
	// TornBytes is the invalid suffix length a torn active tail carries.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Status is ok, torn, corrupt, missing, stale or quarantined.
	Status string `json:"status"`
	// Detail is the verification failure, when there is one.
	Detail string `json:"detail,omitempty"`
	// Repaired records the repair action taken, if any ("truncated",
	// "quarantined").
	Repaired string `json:"repaired,omitempty"`
}

// FsckReport is the result of one offline directory check.
type FsckReport struct {
	Dir   string     `json:"dir"`
	Files []FsckFile `json:"files"`
	// Corrupt counts files that failed verification (including
	// referenced archives that are missing); Torn counts recoverable
	// torn active tails; Repaired counts repair actions taken.
	Corrupt  int `json:"corrupt"`
	Torn     int `json:"torn"`
	Repaired int `json:"repaired"`
	// Clean reports no corruption (torn tails are recoverable and do
	// not make a directory unclean; stale files are garbage the next
	// open collects).
	Clean bool `json:"clean"`
}

// Fsck verifies every file of the journal generation rooted at dir:
// per-record CRCs, JSON record data and segment footers in the newest
// snapshot, the uncovered sealed segments and the active file, and the
// full checksum of every archive the snapshot references. Read-only by
// default; with repair it truncates the active file's torn tail and
// quarantines corrupt files (rename to a .quarantined suffix) so the
// directory opens again. A missing or empty directory is clean. Returns an error
// only for IO failures — corruption is reported, not returned.
func Fsck(dir string, repair bool) (FsckReport, error) {
	rep := FsckReport{Dir: dir}
	names, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		rep.Clean = true
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("store: fsck read dir: %w", err)
	}

	var snaps, sealed, archives []uint64
	onDisk := make(map[string]int64)
	var others []string
	for _, de := range names {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if info, ierr := de.Info(); ierr == nil {
			onDisk[name] = info.Size()
		}
		switch {
		case name == journalName:
		case strings.Contains(name, ".quarantined"):
			rep.Files = append(rep.Files, FsckFile{
				Name: name, Kind: "quarantined", Bytes: onDisk[name], Status: "quarantined",
				Detail: "moved aside by an earlier quarantine; restore or delete manually",
			})
		case strings.HasSuffix(name, ".tmp"):
			rep.Files = append(rep.Files, FsckFile{
				Name: name, Kind: "temp", Bytes: onDisk[name], Status: "stale",
				Detail: "in-progress fold never installed; the next open removes it",
			})
		default:
			if n, ok := parseNumbered(name, "snapshot."); ok {
				snaps = append(snaps, n)
			} else if n, ok := parseNumbered(name, "journal."); ok {
				sealed = append(sealed, n)
			} else if n, ok := parseNumbered(name, "archive."); ok {
				archives = append(archives, n)
			} else {
				others = append(others, name)
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(sealed, func(i, j int) bool { return sealed[i] < sealed[j] })
	sort.Slice(archives, func(i, j int) bool { return archives[i] < archives[j] })

	// quarantine moves a corrupt file aside when repairing.
	quarantine := func(f *FsckFile) error {
		if !repair {
			return nil
		}
		p := filepath.Join(dir, f.Name)
		if err := os.Rename(p, quarantinePath(p)); err != nil {
			return fmt.Errorf("store: fsck quarantine %s: %w", f.Name, err)
		}
		f.Repaired = "quarantined"
		rep.Repaired++
		return nil
	}

	// The newest snapshot, verified fully; its archive refs decide which
	// archives are part of the generation.
	var refs []ArchiveRef
	snapNum := uint64(0)
	if len(snaps) > 0 {
		snapNum = snaps[len(snaps)-1]
		for _, n := range snaps[:len(snaps)-1] {
			name := snapName(n)
			rep.Files = append(rep.Files, FsckFile{
				Name: name, Kind: "snapshot", Bytes: onDisk[name], Status: "stale",
				Detail: "superseded by a newer snapshot; the next open removes it",
			})
		}
		name := snapName(snapNum)
		f := FsckFile{Name: name, Kind: "snapshot", Bytes: onDisk[name], Status: "ok"}
		fr, verr := replayJournalFile(filepath.Join(dir, name), replaySnapshot, func(e Entry) (err error) {
			if err := checkRecordData(e); err != nil {
				return err
			}
			refs, err = collectRef(refs, e)
			return err
		})
		f.Records, f.Footer = fr.n, fr.footer != nil
		if verr != nil {
			if !fsckCorrupt(verr) {
				return rep, verr
			}
			f.Status, f.Detail = "corrupt", verr.Error()
			rep.Corrupt++
			refs = nil
			if err := quarantine(&f); err != nil {
				return rep, err
			}
		}
		rep.Files = append(rep.Files, f)
	}

	// Sealed segments: those a snapshot covers are stale garbage, the
	// rest must verify strictly (footer permitting only the legacy
	// torn-final-line crash shape).
	for _, n := range sealed {
		name := sealedName(n)
		if n <= snapNum {
			rep.Files = append(rep.Files, FsckFile{
				Name: name, Kind: "segment", Bytes: onDisk[name], Status: "stale",
				Detail: "folded into the snapshot; the next open removes it",
			})
			continue
		}
		f := FsckFile{Name: name, Kind: "segment", Bytes: onDisk[name], Status: "ok"}
		fr, verr := replayJournalFile(filepath.Join(dir, name), replaySealed, checkRecordData)
		f.Records, f.Footer = fr.n, fr.footer != nil
		if verr != nil {
			if !fsckCorrupt(verr) {
				return rep, verr
			}
			f.Status, f.Detail = "corrupt", verr.Error()
			rep.Corrupt++
			if err := quarantine(&f); err != nil {
				return rep, err
			}
		} else if fr.torn > 0 {
			f.Status, f.TornBytes = "torn", fr.torn
			f.Detail = "torn final line (no footer); replay drops it"
			rep.Torn++
		}
		rep.Files = append(rep.Files, f)
	}

	// The active file: an invalid suffix is a recoverable crash tail
	// (repair truncates it, like an open would); invalid bytes before a
	// later valid record are corruption, and so is a record whose data
	// is not JSON wherever it sits: its CRC and newline are intact, so
	// it is no torn write, and an open fails on it.
	if _, ok := onDisk[journalName]; ok {
		f := FsckFile{Name: journalName, Kind: "active", Bytes: onDisk[journalName], Status: "ok"}
		fr, verr := replayJournalFile(filepath.Join(dir, journalName), replayActive, checkRecordData)
		f.Records = fr.n
		switch {
		case verr != nil && fsckCorrupt(verr):
			f.Status, f.Detail = "corrupt", verr.Error()
			rep.Corrupt++
			if err := quarantine(&f); err != nil {
				return rep, err
			}
		case verr != nil:
			return rep, verr
		case fr.size > fr.good:
			f.Status, f.TornBytes = "torn", fr.size-fr.good
			f.Detail = "torn tail (or a stranded seal footer); replay truncates it"
			rep.Torn++
			if repair {
				if err := os.Truncate(filepath.Join(dir, journalName), fr.good); err != nil {
					return rep, fmt.Errorf("store: fsck truncate active tail: %w", err)
				}
				f.Repaired = "truncated"
				rep.Repaired++
			}
		}
		rep.Files = append(rep.Files, f)
	}

	// Archives: referenced ones verify against the full checksum the
	// snapshot recorded; unreferenced ones are orphans of a crashed fold.
	referenced := make(map[uint64]ArchiveRef, len(refs))
	for _, ref := range refs {
		referenced[ref.Archive] = ref
	}
	for _, n := range archives {
		name := archiveName(n)
		ref, ok := referenced[n]
		if !ok {
			rep.Files = append(rep.Files, FsckFile{
				Name: name, Kind: "orphan-archive", Bytes: onDisk[name], Status: "stale",
				Detail: "no snapshot references it; the next open removes it",
			})
			continue
		}
		delete(referenced, n)
		f := FsckFile{Name: name, Kind: "archive", Bytes: onDisk[name], Records: ref.Entries, Status: "ok"}
		if verr := readArchive(dir, ref, func(Entry) error { return nil }); verr != nil {
			if !errors.Is(verr, ErrCorrupt) {
				return rep, verr
			}
			f.Status, f.Detail = "corrupt", verr.Error()
			rep.Corrupt++
			if err := quarantine(&f); err != nil {
				return rep, err
			}
		}
		rep.Files = append(rep.Files, f)
	}
	for n, ref := range referenced {
		rep.Files = append(rep.Files, FsckFile{
			Name: archiveName(n), Kind: "archive", Bytes: 0, Records: ref.Entries,
			Status: "missing", Detail: "snapshot references it but it is not on disk",
		})
		rep.Corrupt++
	}

	for _, name := range others {
		rep.Files = append(rep.Files, FsckFile{
			Name: name, Kind: "other", Bytes: onDisk[name], Status: "ok",
			Detail: "not a journal file; ignored by the store",
		})
	}

	sort.Slice(rep.Files, func(i, j int) bool { return rep.Files[i].Name < rep.Files[j].Name })
	rep.Clean = rep.Corrupt == 0
	return rep, nil
}

// checkRecordData fails a record whose data is not JSON. Replay hands
// data to its consumer undecoded, so such a record passes the reader
// (its CRC holds) and fails the open in the consumer; fsck applies the
// check every consumer starts with.
func checkRecordData(e Entry) error {
	if len(e.Data) > 0 && !json.Valid(e.Data) {
		return errors.New("record data is not JSON")
	}
	return nil
}

// fsckCorrupt reports whether a verification error is damage to report
// (a failed CRC, footer or framing check, or a record a consumer could
// not decode) rather than an IO failure to return.
func fsckCorrupt(err error) bool {
	var re *RecordError
	return errors.Is(err, ErrCorrupt) || errors.As(err, &re)
}
