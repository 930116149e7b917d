package store

import (
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// memFS is a file system held in memory: a map from cleaned path to
// inode, each file's bytes one slice, every operation under one mutex.
// A handle points at its inode, so a rename or a remove leaves open
// handles on the same data, as on a POSIX file system. Directories are
// implicit — a file lives in the directory its path names, a directory
// without files lists empty, and MkdirAll and SyncDir do nothing —
// and so is durability: Sync does nothing, and nothing written is ever
// lost short of the process.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memInode
}

type memInode struct{ data []byte }

// NewMemFS returns an empty in-memory file system, safe for concurrent
// use.
func NewMemFS() FS { return &memFS{files: make(map[string]*memInode)} }

// lookup finds name's inode; callers hold mu.
func (m *memFS) lookup(op, name string) (*memInode, error) {
	n, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	return n, nil
}

func (m *memFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("open", name)
	if err != nil {
		return nil, err
	}
	return &memFile{m: m, n: n}, nil
}

func (m *memFS) OpenAppend(name string) (File, error) { return m.openWrite(name, false), nil }

func (m *memFS) Create(name string) (File, error) { return m.openWrite(name, true), nil }

// openWrite returns a write handle on name, created if missing and
// emptied if trunc. Its writes land at the end of the file, as with
// O_APPEND.
func (m *memFS) openWrite(name string, trunc bool) File {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	n := m.files[name]
	if n == nil {
		n = &memInode{}
		m.files[name] = n
	}
	if trunc {
		n.data = nil
	}
	return &memFile{m: m, n: n}
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("rename", oldname)
	if err != nil {
		return err
	}
	delete(m.files, filepath.Clean(oldname))
	m.files[filepath.Clean(newname)] = n
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.lookup("remove", name); err != nil {
		return err
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *memFS) ReadDir(dir string) ([]DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	var out []DirEntry
	for name, n := range m.files {
		if filepath.Dir(name) == dir {
			out = append(out, DirEntry{Name: filepath.Base(name), Size: int64(len(n.data))})
		}
	}
	slices.SortFunc(out, func(a, b DirEntry) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

func (m *memFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("stat", name)
	if err != nil {
		return 0, err
	}
	return int64(len(n.data)), nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.lookup("truncate", name)
	if err != nil {
		return err
	}
	n.data = n.data[:min(size, int64(len(n.data)))]
	return nil
}

func (m *memFS) MkdirAll(string) error { return nil }

func (m *memFS) SyncDir(string) error { return nil }

// memFile is an open handle on a memFS inode.
type memFile struct {
	m      *memFS
	n      *memInode
	off    int // read offset
	closed bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.off >= len(f.n.data) {
		return 0, io.EOF
	}
	k := copy(p, f.n.data[f.off:])
	f.off += k
	return k, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return 0, fs.ErrClosed
	}
	f.n.data = append(f.n.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

func (f *memFile) Close() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.closed {
		return fs.ErrClosed
	}
	f.closed = true
	return nil
}
