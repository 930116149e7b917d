package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// committedLines returns the payload of every record line in the
// committed data dirs — framed lines with their envelope stripped,
// legacy lines and archive lines as they are — the seeds of
// FuzzScanEntry.
func committedLines(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, dir := range []string{
		"../../testdata/inline-model-datadir",
		"../../testdata/mirrored-execlog",
		"../../testdata/archived-execlog",
		"testdata/archived-log",
	} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				line := sc.Bytes()
				if len(line) > frameHdrLen && line[0] == frameMagic {
					if line[1] != frameRecord {
						continue
					}
					line = line[frameHdrLen:]
				}
				out = append(out, bytes.Clone(line))
			}
			return sc.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatal("no committed journal lines found")
	}
	return out
}

// FuzzScanEntry holds the one-pass envelope scanner to encoding/json:
// on every payload it accepts, json.Unmarshal into Entry gives the
// same entry. The scanner does not validate the data it skips, so the
// one allowed difference is a payload whose data is not JSON, which
// encoding/json rejects whole and the data's consumer rejects later.
func FuzzScanEntry(f *testing.F) {
	for _, line := range committedLines(f) {
		f.Add(line)
	}
	f.Add([]byte(`{"seq":1,"repo":"instances","op":"append","id":"li-1","data":{"op":"probe"}}`)) // a legacy unframed line
	f.Add([]byte(`{"seq":2,"ts":"2009-03-02T12:00:00.5+01:00","repo":"models","op":"delete","id":"urn:\"x\"\u00e9"}`))
	f.Add([]byte(`{"seq":3,"repo":"r","op":"put","data":1,"data":2}`))
	f.Add([]byte(`{"seq":4,"repo":"r","op":"put","data":{"a":"}"} }`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got Entry
		if !scanEntry(payload, &got) {
			return
		}
		var want Entry
		if err := json.Unmarshal(payload, &want); err != nil {
			if json.Valid(got.Data) {
				t.Fatalf("scanned %q, which encoding/json rejects (%v), with valid data %q", payload, err, got.Data)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan %q:\nscan %#v\njson %#v", payload, got, want)
		}
	})
}

// TestScanEntryReadsCommittedDataDirs: every framed record the
// committed data dirs hold takes the one-pass scanner and decodes as
// encoding/json decodes it.
func TestScanEntryReadsCommittedDataDirs(t *testing.T) {
	n := 0
	for _, p := range committedLines(t) {
		if !bytes.HasPrefix(p, []byte(`{"seq":`)) {
			continue // a legacy writer's key order
		}
		var got, want Entry
		if !scanEntry(p, &got) {
			t.Fatalf("scanner fell back on %s", p)
		}
		if err := json.Unmarshal(p, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scan %s:\nscan %#v\njson %#v", p, got, want)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no committed records in appendEntry's layout")
	}
}

// appendFramedLine appends payload to path as a framed record with a
// correct CRC.
func appendFramedLine(t *testing.T, fsys FS, path, payload string) {
	t.Helper()
	appendFile(t, fsys, path, appendFrame(nil, frameRecord, []byte(payload)))
}

// wantRecordError fails t unless err is a RecordError naming the
// active journal and line.
func wantRecordError(t *testing.T, err error, line int) {
	t.Helper()
	var re *RecordError
	if !errors.As(err, &re) || filepath.Base(re.Path) != journalName || re.Line != line {
		t.Fatalf("open failed with %v, want a RecordError at %s line %d", err, journalName, line)
	}
	if want := fmt.Sprintf("%s: line %d", journalName, line); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name %q", err, want)
	}
}

// TestFsckReportsUndecodableRecord: a framed record whose CRC is
// correct but that its consumer cannot decode — data that is not JSON,
// or a value of the wrong JSON type — fails the open (see
// TestUndecodableRecordFailsOpenWithLocation), so the consumer-backed
// fsck must report its file corrupt at that line and offset, on both
// journals, as the last record of the active file, before a later
// record, or in a sealed segment, and repair must quarantine the file
// rather than truncate it as a torn tail.
func TestFsckReportsUndecodableRecord(t *testing.T) {
	seedDocs := func(t *testing.T, fsys FS, dir string) {
		s, repo, err := openIntegrityStore(t, fsys, dir, IntegrityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		putDocs(t, repo, 3, 0)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	openDocs := func(t *testing.T, fsys FS, dir string) error {
		s, _, err := openIntegrityStore(t, fsys, dir, IntegrityOptions{})
		if err == nil {
			err = s.Close()
		}
		return err
	}
	fsckDocs := func(t *testing.T, fsys FS, dir string, repair bool) (FsckReport, error) {
		s := Open(dir, Options{FS: fsys})
		MustRepo[doc](s, "docs")
		return s.Fsck(repair)
	}
	decodeInstance := func(id string, data []byte) error {
		var v map[string]any
		return json.Unmarshal(data, &v)
	}
	journals := []struct {
		name      string
		seed      func(t *testing.T, fsys FS, dir string)
		bad, good string
		open      func(t *testing.T, fsys FS, dir string) error
		fsck      func(t *testing.T, fsys FS, dir string, repair bool) (FsckReport, error)
	}{
		{
			name: "definitions",
			seed: seedDocs,
			bad:  `{"seq":4,"repo":"docs","op":"put","id":"k09","data":{"title":}}`,
			good: `{"seq":5,"repo":"docs","op":"put","id":"k10","data":{"title":"after"}}`,
			open: openDocs,
			fsck: fsckDocs,
		},
		{
			name: "definitions-type",
			seed: seedDocs,
			bad:  `{"seq":4,"repo":"docs","op":"put","id":"k09","data":{"title":5}}`,
			good: `{"seq":5,"repo":"docs","op":"put","id":"k10","data":{"title":"after"}}`,
			open: openDocs,
			fsck: fsckDocs,
		},
		{
			name: "instances",
			seed: func(t *testing.T, fsys FS, dir string) { seedInstances(t, fsys, dir, 3, false) },
			bad:  `{"seq":4,"repo":"instances","op":"append","id":"li-0","data":{"op":}}`,
			good: `{"seq":5,"repo":"instances","op":"append","id":"li-1","data":{"op":"advance"}}`,
			open: func(t *testing.T, fsys FS, dir string) error {
				c := OpenInstances(dir, InstancesOptions{FS: fsys})
				defer c.Close()
				return c.Replay(decodeInstance)
			},
			fsck: func(t *testing.T, fsys FS, dir string, repair bool) (FsckReport, error) {
				return fsck(fsys, dir, repair, entryID, (&Instances{}).applier(decodeInstance))
			},
		},
	}
	for _, j := range journals {
		for _, where := range []string{"tail", "interior", "sealed"} {
			t.Run(j.name+"/"+where, func(t *testing.T) {
				eachFS(t, func(t *testing.T, fsys FS, dir string) {
					j.seed(t, fsys, dir)
					path := filepath.Join(dir, journalName)
					size, err := fsys.Size(path)
					if err != nil {
						t.Fatal(err)
					}
					appendFramedLine(t, fsys, path, j.bad)
					if where != "tail" {
						appendFramedLine(t, fsys, path, j.good)
					}
					name := journalName
					if where == "sealed" {
						name = sealedName(1)
						if err := fsys.Rename(path, filepath.Join(dir, name)); err != nil {
							t.Fatal(err)
						}
					}

					rep, err := j.fsck(t, fsys, dir, false)
					if err != nil {
						t.Fatal(err)
					}
					f := fsckFile(t, rep, name)
					want := fmt.Sprintf("%s: line 4 @ offset %d: ", name, size)
					if rep.Clean || rep.Corrupt != 1 || rep.Torn != 0 || f.Status != "corrupt" || !strings.Contains(f.Detail, want) {
						t.Fatalf("read-only fsck = corrupt %d torn %d, %s %q (%s); want %s corrupt naming %q",
							rep.Corrupt, rep.Torn, name, f.Status, f.Detail, name, want)
					}
					if err := j.open(t, fsys, dir); err == nil {
						t.Fatal("the reported dir opened; fsck and open disagree")
					}

					rep, err = j.fsck(t, fsys, dir, true)
					if err != nil {
						t.Fatal(err)
					}
					if f := fsckFile(t, rep, name); rep.Repaired != 1 || f.Repaired != "quarantined" {
						t.Fatalf("repair fsck = repaired %d, %s %q; want the file quarantined, not truncated",
							rep.Repaired, name, f.Repaired)
					}
					if err := j.open(t, fsys, dir); err != nil {
						t.Fatalf("open after repair: %v", err)
					}
				})
			})
		}
	}
}

// fsckFile returns the verdict rep carries for the file name.
func fsckFile(t *testing.T, rep FsckReport, name string) FsckFile {
	t.Helper()
	for _, f := range rep.Files {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("fsck reported no %s: %+v", name, rep.Files)
	return FsckFile{}
}

// TestUndecodableRecordFailsOpenWithLocation: a framed record whose
// CRC is correct but whose data is not JSON passes the reader — it is
// no torn write — and fails the open in its consumer, with the file and
// line named, on both journals, sequential and fanned out, whether it
// is the last record or has records after it.
func TestUndecodableRecordFailsOpenWithLocation(t *testing.T) {
	for _, tail := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("definitions/tail=%v/workers=%d", tail, workers), func(t *testing.T) {
				eachFS(t, func(t *testing.T, fsys FS, dir string) {
					s, repo, err := openIntegrityStore(t, fsys, dir, IntegrityOptions{})
					if err != nil {
						t.Fatal(err)
					}
					putDocs(t, repo, 3, 0)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(dir, journalName)
					appendFramedLine(t, fsys, path, `{"seq":4,"repo":"docs","op":"put","id":"k09","data":{"title":}}`)
					if !tail {
						appendFramedLine(t, fsys, path, `{"seq":5,"repo":"docs","op":"put","id":"k10","data":{"title":"after"}}`)
					}
					s2 := Open(dir, Options{FS: fsys})
					defer s2.Close()
					MustRepo[doc](s2, "docs")
					wantRecordError(t, s2.LoadParallel(workers), 4)
				})
			})
			t.Run(fmt.Sprintf("instances/tail=%v/workers=%d", tail, workers), func(t *testing.T) {
				eachFS(t, func(t *testing.T, fsys FS, dir string) {
					seedInstances(t, fsys, dir, 3, false)
					path := filepath.Join(dir, journalName)
					appendFramedLine(t, fsys, path, `{"seq":4,"repo":"instances","op":"append","id":"li-0","data":{"op":}}`)
					if !tail {
						appendFramedLine(t, fsys, path, `{"seq":5,"repo":"instances","op":"append","id":"li-1","data":{"op":"advance"}}`)
					}
					c := OpenInstances(dir, InstancesOptions{FS: fsys})
					defer c.Close()
					err := c.ReplayParallel(workers, func(id string, data []byte) error {
						var v map[string]any
						return json.Unmarshal(data, &v)
					})
					wantRecordError(t, err, 4)
				})
			})
		}
	}
}
