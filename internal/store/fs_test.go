package store

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// eachFS runs fn once per file system a journal runs on, in parallel:
// the operating system's, in a fresh temp dir, and a fresh in-memory
// one. On the in-memory file system a crash is Halt and a reopen on
// the same FS: what a killed process leaves behind is exactly what it
// wrote.
func eachFS(t *testing.T, fn func(t *testing.T, fsys FS, dir string)) {
	t.Helper()
	t.Run("os", func(t *testing.T) {
		t.Parallel()
		fn(t, osFS{}, t.TempDir())
	})
	t.Run("mem", func(t *testing.T) {
		t.Parallel()
		fn(t, NewMemFS(), "/journal")
	})
}

// readFile returns the contents of path on fsys.
func readFile(t *testing.T, fsys FS, path string) []byte {
	t.Helper()
	f, err := fsys.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeFile replaces path on fsys with data.
func writeFile(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	if err := fsys.MkdirAll(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// appendFile appends data to path on fsys.
func appendFile(t *testing.T, fsys FS, path string, data []byte) {
	t.Helper()
	writeFile(t, fsys, path, append(readFile(t, fsys, path), data...))
}

// exists reports whether path is on fsys.
func exists(fsys FS, path string) bool {
	_, err := fsys.Size(path)
	return !errors.Is(err, fs.ErrNotExist)
}

// copyDir copies the files of the OS directory src into dir on fsys.
func copyDir(t *testing.T, src string, fsys FS, dir string) {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, fsys, filepath.Join(dir, de.Name()), data)
	}
}

// listNames returns the file names in dir, sorted, for layout
// assertions.
func listNames(t *testing.T, fsys FS, dir string) []string {
	t.Helper()
	des, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name)
	}
	return names
}

// TestMemFSRenameKeepsHandles: a rename or a remove leaves open handles
// on the same data, as an inode would, and truncation shows through
// every handle.
func TestMemFSRenameKeepsHandles(t *testing.T) {
	fsys := NewMemFS()
	w, err := fsys.OpenAppend("/d/a")
	if err != nil {
		t.Fatal(err)
	}
	r, err := fsys.Open("/d/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename("/d/a", "/d/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if exists(fsys, "/d/a") || !exists(fsys, "/d/b") {
		t.Fatal("rename did not move the name")
	}
	if got := readFile(t, fsys, "/d/b"); string(got) != "hello" {
		t.Fatalf("renamed file holds %q, want the write through the old handle", got)
	}
	if err := fsys.Remove("/d/b"); err != nil {
		t.Fatal(err)
	}
	if got, _ := io.ReadAll(r); string(got) != "hello" {
		t.Fatalf("handle on a removed file reads %q", got)
	}
	if _, err := fsys.Open("/d/b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("open of a removed file: %v, want ErrNotExist", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, fs.ErrClosed) {
		t.Fatalf("write after close: %v, want ErrClosed", err)
	}

	writeFile(t, fsys, "/d/c", []byte("0123456789"))
	if err := fsys.Truncate("/d/c", 4); err != nil {
		t.Fatal(err)
	}
	appendFile(t, fsys, "/d/c", []byte("!"))
	if got := readFile(t, fsys, "/d/c"); string(got) != "0123!" {
		t.Fatalf("truncate then append = %q", got)
	}
	if got := listNames(t, fsys, "/d"); len(got) != 1 || got[0] != "c" {
		t.Fatalf("ReadDir = %v, want [c]", got)
	}
}

// TestMemFSConcurrentAppends: concurrent appenders on one file lose no
// byte and interleave only whole writes.
func TestMemFSConcurrentAppends(t *testing.T) {
	fsys := NewMemFS()
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f, err := fsys.OpenAppend("/log")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			line := []byte{'a' + byte(w), '\n'}
			for i := 0; i < each; i++ {
				if _, err := f.Write(line); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lines := bytes.Split(bytes.TrimSuffix(readFile(t, fsys, "/log"), []byte{'\n'}), []byte{'\n'})
	if len(lines) != writers*each {
		t.Fatalf("%d lines, want %d", len(lines), writers*each)
	}
	for _, l := range lines {
		if len(l) != 1 {
			t.Fatalf("interleaved write: %q", l)
		}
	}
}
