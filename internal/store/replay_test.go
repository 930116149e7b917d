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
func appendFramedLine(t *testing.T, path, payload string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(appendFrame(nil, frameRecord, []byte(payload))); err != nil {
		t.Fatal(err)
	}
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

// TestUndecodableRecordFailsOpenWithLocation: a framed record whose
// CRC is correct but whose data is not JSON passes the reader — it is
// no torn write — and fails the open in its consumer, with the file and
// line named, on both journals, sequential and fanned out, whether it
// is the last record or has records after it.
func TestUndecodableRecordFailsOpenWithLocation(t *testing.T) {
	for _, tail := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("definitions/tail=%v/workers=%d", tail, workers), func(t *testing.T) {
				dir := t.TempDir()
				s, repo, err := openIntegrityStore(t, dir, IntegrityOptions{})
				if err != nil {
					t.Fatal(err)
				}
				putDocs(t, repo, 3, 0)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, journalName)
				appendFramedLine(t, path, `{"seq":4,"repo":"docs","op":"put","id":"k09","data":{"title":}}`)
				if !tail {
					appendFramedLine(t, path, `{"seq":5,"repo":"docs","op":"put","id":"k10","data":{"title":"after"}}`)
				}
				s2, err := Open(dir, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				MustRepo[doc](s2, "docs")
				wantRecordError(t, s2.LoadParallel(workers), 4)
			})
			t.Run(fmt.Sprintf("instances/tail=%v/workers=%d", tail, workers), func(t *testing.T) {
				dir := t.TempDir()
				seedInstances(t, dir, 3, false)
				path := filepath.Join(dir, journalName)
				appendFramedLine(t, path, `{"seq":4,"repo":"instances","op":"append","id":"li-0","data":{"op":}}`)
				if !tail {
					appendFramedLine(t, path, `{"seq":5,"repo":"instances","op":"append","id":"li-1","data":{"op":"advance"}}`)
				}
				c, err := OpenInstances(dir, InstancesOptions{})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				err = c.ReplayParallel(workers, func(id string, data []byte) error {
					var v map[string]any
					return json.Unmarshal(data, &v)
				})
				wantRecordError(t, err, 4)
			})
		}
	}
}
