package gelee

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/vclock"
)

// fsckSeeds is how many generated cases TestFsckAgreesWithOpen runs.
// fsckRegressionSeeds are seeds beyond that range that a search of
// seeds 1..3000 found Fsck and New disagreeing on: both mutate an
// archive ref into the difference the test accepts by design.
const fsckSeeds = 150

var fsckRegressionSeeds = []uint64{2177, 2559}

// TestFsckAgreesWithOpen mutates seeded copies of the committed data
// directories, and of two the test writes (one with instance records
// and shared model records in the active files, one folded into
// snapshots with a shared-record head), and asserts that Fsck reports
// a copy clean exactly when New opens it. Each mutation rewrites one
// record of a journal file and re-frames it — record CRC and, where
// the file has one, segment footer fixed — so the damage reaches the
// consumers rather than stopping at the framing checks.
//
// One difference is by design: New checks a referenced archive's
// presence and length only (open cost stays O(live + refs)) and
// verifies its checksum when the history is read, while Fsck reads
// every referenced archive in full. A mutated archive ref that still
// names an archive of the right length but a different checksum or
// entry count therefore opens and fails Fsck; the test accepts exactly
// that case.
func TestFsckAgreesWithOpen(t *testing.T) {
	bases := []string{
		"testdata/archived-execlog",
		"testdata/inline-model-datadir",
		"testdata/mirrored-execlog",
		"internal/store/testdata/archived-log",
		writeFsckBase(t, false),
		writeFsckBase(t, true),
	}
	seeds := append([]uint64(nil), fsckRegressionSeeds...)
	for s := uint64(1); s <= fsckSeeds; s++ {
		seeds = append(seeds, s)
	}
	mutated := 0
	for _, seed := range seeds {
		rng := rand.New(rand.NewPCG(seed, 0x6765_6c65))
		base := bases[rng.IntN(len(bases))]
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(base)); err != nil {
			t.Fatal(err)
		}
		what := mutateJournal(t, rng, dir)
		if what == "" {
			continue
		}
		mutated++
		rep, err := Fsck(dir, false)
		if err != nil {
			t.Fatalf("seed %d (%s, %s): fsck: %v", seed, base, what, err)
		}
		sys, openErr := New(Options{DataDir: dir, PersistInstances: true})
		if openErr == nil {
			sys.Close()
		}
		if rep.Clean != (openErr == nil) && !(openErr == nil && archiveChecksumOnly(rep)) {
			out, _ := json.MarshalIndent(rep, "", "  ")
			t.Errorf("seed %d (%s, %s): fsck clean=%v, New error %v\n%s", seed, base, what, rep.Clean, openErr, out)
		}
	}
	if mutated < fsckSeeds/2 {
		t.Fatalf("only %d of %d seeds found a record to mutate", mutated, len(seeds))
	}
}

// archiveChecksumOnly reports whether every corrupt verdict rep holds
// is a referenced archive on disk that fails its recorded checksum.
func archiveChecksumOnly(rep FsckReport) bool {
	found := false
	for _, j := range rep.Journals {
		for _, f := range j.Files {
			if f.Status == "ok" || f.Status == "stale" || f.Status == "kept" || f.Status == "torn" {
				continue
			}
			if f.Kind != "archive" || f.Status != "corrupt" || !strings.Contains(f.Detail, "failed verification") {
				return false
			}
			found = true
		}
	}
	return found && rep.Rebuild == ""
}

// writeFsckBase writes a data directory with a mixed workload: models,
// instances with their shared model records, executions, a pending
// proposal. folded compacts both journals into snapshots.
func writeFsckBase(t *testing.T, folded bool) string {
	t.Helper()
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2026, 1, 10, 9, 0, 0, 0, time.UTC))
	sys, err := New(restartOpts(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	seedWorkload(t, sys)
	if folded {
		if err := sys.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mutateJournal rewrites one record of a journal file in dir (or its
// instances directory), picked by rng, and returns what it did; ""
// when the picked mutation found nothing to change.
func mutateJournal(t *testing.T, rng *rand.Rand, dir string) string {
	t.Helper()
	var files []string
	for _, d := range []string{dir, filepath.Join(dir, "instances")} {
		entries, _ := os.ReadDir(d)
		for _, de := range entries {
			name := de.Name()
			if name == "gelee.journal" || (strings.HasSuffix(name, ".jsonl") && !strings.HasPrefix(name, "archive.")) {
				files = append(files, filepath.Join(d, name))
			}
		}
	}
	type record struct {
		file  string
		lines [][]byte
		i     int
	}
	var recs, shared []record
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
			lines = lines[:n-1]
		}
		for i, l := range lines {
			if bytes.HasPrefix(l, []byte("#1 ")) {
				recs = append(recs, record{path, lines, i})
				if bytes.Contains(l, []byte(`"op":"shared"`)) {
					shared = append(shared, record{path, lines, i})
				}
			}
		}
	}
	if len(recs) == 0 {
		return ""
	}
	r := recs[rng.IntN(len(recs))]
	lines, what := r.lines, ""
	payload := func(l []byte) []byte { return l[12 : len(l)-1] }
	switch rng.IntN(5) {
	case 0: // flip a byte, fix the CRC
		p := bytes.Clone(payload(lines[r.i]))
		j := rng.IntN(len(p))
		b := p[j] ^ byte(1<<rng.IntN(7))
		if b == '\n' || b == '\r' {
			b = p[j] ^ 0x20
		}
		p[j] = b
		lines[r.i] = frameRecord(p)
		what = fmt.Sprintf("flip byte %d", j)
	case 1: // change a data value's JSON type
		p := payload(lines[r.i])
		at := bytes.Index(p, []byte(`"data":`))
		if at < 0 {
			return ""
		}
		spots := scalarValue.FindAllSubmatchIndex(p[at:], -1)
		if len(spots) == 0 {
			return ""
		}
		s := spots[rng.IntN(len(spots))]
		lo, hi := at+s[2], at+s[3]
		repl := []byte(`"5"`)
		if p[lo] == '"' {
			repl = []byte(`5`)
		}
		q := append(append(append([]byte(nil), p[:lo]...), repl...), p[hi:]...)
		lines[r.i] = frameRecord(q)
		what = fmt.Sprintf("retype %s", p[lo:hi])
	case 2: // drop a shared model record
		if len(shared) == 0 {
			return ""
		}
		r = shared[rng.IntN(len(shared))]
		lines = append(r.lines[:r.i:r.i], r.lines[r.i+1:]...)
		what = "drop shared record"
	case 3: // duplicate a record
		lines = append(append(append([][]byte(nil), lines[:r.i+1]...), lines[r.i]), lines[r.i+1:]...)
		what = "duplicate record"
	case 4: // swap a record with the next one
		if r.i+1 >= len(lines) || !bytes.HasPrefix(lines[r.i+1], []byte("#1 ")) {
			return ""
		}
		lines[r.i], lines[r.i+1] = lines[r.i+1], lines[r.i]
		what = "reorder records"
	}
	lines = refooter(t, lines)
	if err := os.WriteFile(r.file, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	rel, _ := filepath.Rel(dir, r.file)
	return fmt.Sprintf("%s at %s line %d", what, rel, r.i+1)
}

// scalarValue matches a key with a string, number or boolean value;
// submatch 1 is the value.
var scalarValue = regexp.MustCompile(`"(?:[^"\\]|\\.)*":("(?:[^"\\]|\\.)*"|-?[0-9][0-9.eE+-]*|true|false)`)

// castagnoli is the journal's record and footer checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameRecord wraps payload in a record envelope with its CRC.
func frameRecord(payload []byte) []byte {
	return []byte(fmt.Sprintf("#1 %08x %s\n", crc32.Checksum(payload, castagnoli), payload))
}

// refooter reseals a file that ends in a segment footer over its
// mutated records: count, byte length and whole-file CRC.
func refooter(t *testing.T, lines [][]byte) [][]byte {
	t.Helper()
	n := len(lines)
	if n == 0 || !bytes.HasPrefix(lines[n-1], []byte("#F ")) {
		return lines
	}
	var ft map[string]any
	if err := json.Unmarshal(lines[n-1][12:], &ft); err != nil {
		t.Fatal(err)
	}
	body := bytes.Join(lines[:n-1], nil)
	records := 0
	for _, l := range lines[:n-1] {
		if bytes.HasPrefix(l, []byte("#1 ")) {
			records++
		}
	}
	ft["records"], ft["bytes"], ft["crc"] = records, len(body), crc32.Checksum(body, castagnoli)
	payload, err := json.Marshal(ft)
	if err != nil {
		t.Fatal(err)
	}
	lines[n-1] = []byte(fmt.Sprintf("#F %08x %s\n", crc32.Checksum(payload, castagnoli), payload))
	return lines
}

// TestFsckNamesUndecodableRecord: a definitions record whose CRC holds
// but whose value has the wrong JSON type fails New, so gelee.Fsck
// reports the file corrupt at the record's line and offset, and repair
// quarantines it so New opens again.
func TestFsckNamesUndecodableRecord(t *testing.T) {
	dir := writeFsckBase(t, false)
	path := filepath.Join(dir, "gelee.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(`{"seq":900,"repo":"models","op":"put","id":"urn:x","data":{"URI":"urn:x","Name":5}}`)
	if err := os.WriteFile(path, append(bytes.Clone(data), frameRecord(bad)...), 0o644); err != nil {
		t.Fatal(err)
	}
	line := bytes.Count(data, []byte("\n")) + 1
	if _, err := New(Options{DataDir: dir, PersistInstances: true}); err == nil {
		t.Fatal("New opened a record of the wrong type")
	}
	rep, err := Fsck(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("gelee.journal: line %d @ offset %d: ", line, len(data))
	if rep.Clean || !hasVerdict(rep, "gelee.journal", "corrupt", want) {
		t.Fatalf("fsck = %+v; want gelee.journal corrupt naming %q", rep, want)
	}
	if rep, err = Fsck(dir, true); err != nil || !hasVerdict(rep, "gelee.journal", "corrupt", want) {
		t.Fatalf("repair fsck = %+v, %v", rep, err)
	}
	sys, err := New(Options{DataDir: dir, PersistInstances: true})
	if err != nil {
		t.Fatalf("New after repair: %v", err)
	}
	sys.Close()
}

// hasVerdict reports whether rep holds a verdict on the named file of
// the definitions journal with the status and a detail containing want.
func hasVerdict(rep FsckReport, name, status, want string) bool {
	for _, f := range rep.Journals[0].Files {
		if f.Name == name && f.Status == status && strings.Contains(f.Detail, want) {
			return true
		}
	}
	return false
}
