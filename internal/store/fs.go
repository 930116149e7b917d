package store

// The file-system seam: every file operation the store performs goes
// through FS, so a journal runs unchanged on the operating system's
// file system (osFS, the default) or in memory (NewMemFS). This file
// holds the interface and the operating system's implementation — the
// only direct os calls in the package.

import (
	"io"
	"os"
)

// FS is the file system a journal directory lives on: exactly the
// operations the store performs. Errors for a missing file or
// directory match fs.ErrNotExist.
type FS interface {
	// Open opens name for reading.
	Open(name string) (File, error)
	// OpenAppend opens name for writing at its end, creating it empty
	// if missing.
	OpenAppend(name string) (File, error)
	// Create opens name for writing, truncating it or creating it.
	Create(name string) (File, error)
	// Rename moves oldname to newname, replacing newname if present.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// ReadDir lists the files directly inside dir, with their sizes;
	// subdirectories are left out.
	ReadDir(dir string) ([]DirEntry, error)
	// Size reports name's length in bytes.
	Size(name string) (int64, error)
	// Truncate cuts name to size bytes; the store never extends a file.
	Truncate(name string, size int64) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir makes the renames and creates inside dir durable.
	SyncDir(dir string) error
}

// File is an open file of an FS.
type File interface {
	io.Reader
	io.Writer
	// Sync makes the written bytes durable.
	Sync() error
	Close() error
}

// DirEntry is one regular file ReadDir lists.
type DirEntry struct {
	Name string
	Size int64
}

// orOS returns fsys, or the operating system's file system when fsys
// is nil.
func orOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

// osFS is the operating system's file system.
type osFS struct{}

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]DirEntry, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make([]DirEntry, 0, len(entries))
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		e := DirEntry{Name: de.Name()}
		if info, err := de.Info(); err == nil {
			e.Size = info.Size()
		}
		out = append(out, e)
	}
	return out, nil
}

func (osFS) Size(name string) (int64, error) {
	info, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
