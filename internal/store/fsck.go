package store

// Integrity checking: fsck verifies a journal directory from the same
// inventory the open takes (scanSegments), each live file by the same
// per-kind verifier the replay and the scrubber use (liveFile.verify),
// and, given a consumer, streams the records through it as the open
// would (Store.Fsck, FsckInstances). It never mutates unless repair
// is requested. With repair it applies exactly the recovery an open
// would (truncate the torn active tail) plus the one an open refuses:
// quarantine every file that fails its checks or holds a record its
// consumer cannot apply, so a refused data directory opens again —
// shortened, for an operator to reconcile from the .quarantined bytes
// or a backup. A quarantine open is Fsck with repair, then the normal
// open. gelee.Fsck checks a whole data directory through the facade's
// consumers; `geleectl fsck` is its CLI.

import (
	"errors"
	"path/filepath"
	"slices"
	"strings"
)

// FsckFile is one file's verdict in an FsckReport.
type FsckFile struct {
	// Name is the file name within the directory.
	Name string `json:"name"`
	// Kind classifies the file: active, segment, snapshot, archive,
	// temp (a fold that never installed), quarantined (moved aside by
	// an earlier run or a quarantine open), orphan-archive (no snapshot
	// references it) or other (not a journal file).
	Kind string `json:"kind"`
	// Bytes is the file's size on disk.
	Bytes int64 `json:"bytes"`
	// Records is how many valid records verification read.
	Records int `json:"records,omitempty"`
	// Footer reports that the file carried a valid segment footer.
	Footer bool `json:"footer,omitempty"`
	// TornBytes is the invalid suffix length a torn tail carries (a
	// stranded seal footer, which replay also truncates, is not one).
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Status is ok, torn, corrupt, missing, stale (the next open
	// removes it), kept (an orphan the next open keeps) or quarantined.
	Status string `json:"status"`
	// Detail is the verification failure, when there is one.
	Detail string `json:"detail,omitempty"`
	// Repaired records the repair action taken, if any ("truncated",
	// "quarantined").
	Repaired string `json:"repaired,omitempty"`
}

// FsckReport is the result of one directory check.
type FsckReport struct {
	Dir   string     `json:"dir"`
	Files []FsckFile `json:"files"`
	// Corrupt counts files that failed verification (including
	// referenced archives that are missing); Torn counts recoverable
	// torn tails; Repaired counts repair actions taken.
	Corrupt  int `json:"corrupt"`
	Torn     int `json:"torn"`
	Repaired int `json:"repaired"`
	// Clean reports no corruption (torn tails are recoverable and do
	// not make a directory unclean; stale files are garbage the next
	// open collects).
	Clean bool `json:"clean"`
}

// fsck verifies every file of the journal generation rooted at dir on
// fsys: per-record CRCs and segment footers in the newest snapshot, the
// uncovered sealed segments and the active file, and the full checksum
// of every archive the snapshot references. Records are decoded by
// their consumer, fn (nil = none; Store.Fsck and FsckInstances pass
// theirs), streamed bucketed by key as replaySegmented does for the
// open: a record fn fails is a corrupt verdict on its file, naming its
// line and offset, and from the first failing file on fn sees no more
// records, since no open would apply what follows a hole. Read-only
// by default; with repair it truncates the active file's torn tail and
// quarantines corrupt files so the directory opens again. A missing or
// empty directory is clean. Returns an error only for IO failures —
// corruption is reported, not returned.
func fsck(fsys FS, dir string, repair bool, key func(Entry) string, fn func(Entry) error) (FsckReport, error) {
	rep := FsckReport{Dir: dir}
	st, err := scanSegments(fsys, dir)
	if err != nil {
		return rep, err
	}
	rep.Files = append(rep.Files, st.extra...)
	damaged := 0 // files repair moves aside
	corrupt := func(f *FsckFile, detail string) error {
		f.Status, f.Detail = "corrupt", detail
		rep.Corrupt++
		damaged++
		if !repair {
			return nil
		}
		if err := quarantine(fsys, filepath.Join(dir, f.Name)); err != nil {
			return err
		}
		f.Repaired = "quarantined"
		rep.Repaired++
		return nil
	}

	sr, err := replaySegmented(fsys, dir, st, key, fn, func(lf liveFile, fr fileReplay, verr error) error {
		size, onDisk := st.sizes[lf.name]
		if lf.kind == kindActive && !onDisk {
			return nil
		}
		f := FsckFile{Name: lf.name, Kind: kindNames[lf.kind], Bytes: size, Records: fr.n, Footer: fr.footer != nil, Status: "ok"}
		defer func() { rep.Files = append(rep.Files, f) }()
		var re *RecordError
		switch {
		case verr != nil && !errors.Is(verr, ErrCorrupt) && !errors.As(verr, &re):
			return verr
		case verr != nil:
			return corrupt(&f, verr.Error())
		case lf.kind == kindActive && fr.size > fr.good:
			f.Status, f.TornBytes = "torn", fr.torn
			f.Detail = "torn tail (or a stranded seal footer); replay truncates it"
			rep.Torn++
			if !repair {
				return nil
			}
			f.Repaired = "truncated"
			rep.Repaired++
			return truncateTorn(fsys, dir, fr.good)
		case fr.torn > 0:
			f.Status, f.TornBytes = "torn", fr.torn
			f.Detail = "torn final line (no footer); replay drops it"
			rep.Torn++
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Archives: referenced ones verify against the full checksum the
	// snapshot recorded; unreferenced ones are orphans of a crashed fold.
	referenced := make(map[uint64]ArchiveRef, len(sr.refs))
	for _, ref := range sr.refs {
		referenced[ref.Archive] = ref
		if _, ok := st.archives[ref.Archive]; !ok {
			rep.Files = append(rep.Files, FsckFile{
				Name: archiveName(ref.Archive), Kind: "archive", Records: ref.Entries,
				Status: "missing", Detail: "snapshot references it but it is not on disk",
			})
			rep.Corrupt++
		}
	}
	var orphans []uint64
	for n, size := range st.archives {
		ref, ok := referenced[n]
		if !ok {
			orphans = append(orphans, n)
			continue
		}
		f := FsckFile{Name: archiveName(n), Kind: "archive", Bytes: size, Records: ref.Entries, Status: "ok"}
		if _, verr := (liveFile{kind: kindArchive, name: f.Name, ref: ref}).verify(fsys, dir, nil); verr != nil {
			if !errors.Is(verr, ErrCorrupt) {
				return rep, verr
			}
			if err := corrupt(&f, verr.Error()); err != nil {
				return rep, err
			}
		}
		rep.Files = append(rep.Files, f)
	}
	// The open judges no archive unreferenced while a quarantined file
	// remains — one this check moves aside counts too.
	for _, n := range orphans {
		f := FsckFile{Name: archiveName(n), Kind: "orphan-archive", Bytes: st.archives[n], Status: "stale",
			Detail: "no snapshot references it; the next open removes it"}
		if st.quarantined > 0 || damaged > 0 {
			f.Status = "kept"
			f.Detail = "no snapshot references it, but a quarantined file may; the next open keeps it"
		}
		rep.Files = append(rep.Files, f)
	}

	slices.SortFunc(rep.Files, func(a, b FsckFile) int { return strings.Compare(a.Name, b.Name) })
	rep.Clean = rep.Corrupt == 0
	return rep, nil
}
