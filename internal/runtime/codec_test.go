package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
)

// committedDataDirs are the data directories checked into the
// repository, written by earlier versions of the journal writers.
var committedDataDirs = []string{
	"../../testdata/inline-model-datadir",
	"../../testdata/mirrored-execlog",
	"../../testdata/archived-execlog",
	"../store/testdata/archived-log",
}

// committedPayloads returns the data of every record line in the
// committed data dirs — instance records and the definition journal's
// repository values alike — with its envelope stripped.
func committedPayloads(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, dir := range committedDataDirs {
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
				if bytes.HasPrefix(line, []byte("#F")) {
					continue
				}
				if bytes.HasPrefix(line, []byte("#1 ")) {
					line = line[len("#1 xxxxxxxx "):]
				}
				var e struct{ Data json.RawMessage }
				if err := json.Unmarshal(line, &e); err != nil {
					return fmt.Errorf("%s: %v", path, err)
				}
				if len(e.Data) > 0 {
					out = append(out, bytes.Clone(e.Data))
				}
			}
			return sc.Err()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatal("no committed journal records found")
	}
	return out
}

// FuzzDecodeJournalRecord holds the hand decoder to encoding/json:
// on any input both fail, or both give the same record; and whenever
// the one-pass scan accepts an input, json.Unmarshal agrees with it.
func FuzzDecodeJournalRecord(f *testing.F) {
	for _, p := range committedPayloads(f) {
		f.Add(p)
	}
	for _, rec := range codecRecords(f) {
		b, err := rec.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"seq":1,"repo":"instances","op":"append","id":"li-1","data":{"op":"probe"}}`)) // a legacy unframed line
	f.Add([]byte(`{"op":"annotate","instance":"li-1","events":[{"seq":1,"time":"2009-03-02T12:00:00+01:00","kind":"annotated","detail":"\ud83d\ude00 \ud800 \u00e9\t\"x\"\/"}]}`))
	f.Add([]byte(`{"op":"snapshot","instance":"li-1","phase_entered":{},"bindings":{"a":{},"a":{"k":"v"}},"archives":[]}`))
	f.Add([]byte(`{"op":"advance","OP":"x","seq":-0,"terminal":false}`))
	f.Add([]byte(`{"op":"instantiate","instance":"li-1","resource":{"uri":"a"},"resource":{"type":"t"}}`)) // encoding/json merges a repeated object
	f.Add([]byte(`{"op":"snapshot","instance":"li-1","pending":{"note":"a"},"pending":{"summary":"s"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, std JournalRecord
		fastErr := decodeRecord(data, &fast)
		stdErr := json.Unmarshal(data, &std)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("decode %q: hand decoder err %v, encoding/json err %v", data, fastErr, stdErr)
		}
		if stdErr == nil && !reflect.DeepEqual(fast, std) {
			t.Fatalf("decode %q:\nhand %#v\njson %#v", data, fast, std)
		}
		var scanned JournalRecord
		if scanRecord(data, &scanned) {
			if stdErr != nil {
				t.Fatalf("scan accepted %q, which encoding/json rejects: %v", data, stdErr)
			}
			if !reflect.DeepEqual(scanned, std) {
				t.Fatalf("scan %q:\nscan %#v\njson %#v", data, scanned, std)
			}
		}
	})
}

// TestScanRecordReadsCommittedDataDirs: every instance record the
// committed data dirs hold — written by earlier versions of Encode and
// json.Marshal — takes the one-pass decoder, not the fallback, and
// decodes as encoding/json decodes it.
func TestScanRecordReadsCommittedDataDirs(t *testing.T) {
	n := 0
	for _, p := range committedPayloads(t) {
		var probe struct {
			Op       RecordOp `json:"op"`
			Instance string   `json:"instance"`
		}
		if json.Unmarshal(p, &probe) != nil || probe.Op == "" || probe.Instance == "" {
			continue // a repository value or a log entry, not an instance record
		}
		var scanned, std JournalRecord
		if !scanRecord(p, &scanned) {
			t.Fatalf("one-pass decoder fell back on a committed record: %s", p)
		}
		if err := json.Unmarshal(p, &std); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scanned, std) {
			t.Fatalf("decode %s:\nscan %#v\njson %#v", p, scanned, std)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no instance records in the committed data dirs")
	}
}

// TestEncodeDecodeQuick round-trips generated records of every op
// through Encode and decodeRecord: the one-pass decoder reads every
// record Encode writes, and gets what encoding/json gets from
// json.Marshal of the same record.
func TestEncodeDecodeQuick(t *testing.T) {
	model := popModel()
	ops := []RecordOp{RecInstantiate, RecAdvance, RecAnnotate, RecBind, RecReport, RecDispatchFail,
		RecPropose, RecAccept, RecReject, RecSwitch, RecSnapshot, RecModel, RecProbe}
	for _, op := range ops {
		t.Run(string(op), func(t *testing.T) {
			err := quick.Check(func(seed int64) bool {
				rec := randRecord(rand.New(rand.NewSource(seed)), op, model)
				enc, err := rec.Encode()
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				noZeroTimes(t, rec)
				var got JournalRecord
				if !scanRecord(enc, &got) {
					t.Fatalf("one-pass decoder fell back on Encode's output: %s", enc)
				}
				std, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				var want JournalRecord
				if err := json.Unmarshal(std, &want); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round trip of %s:\ngot  %#v\nwant %#v", enc, got, want)
				}
				return true
			}, &quick.Config{MaxCount: 200})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// noZeroTimes fails t if rec, without its model bodies (which keep
// encoding/json's encoding), encodes a zero time.
func noZeroTimes(t testing.TB, rec *JournalRecord) {
	t.Helper()
	bare := *rec
	bare.Model = nil
	if p := rec.Pending; p != nil {
		bare.Pending = &ChangeProposal{ProposedBy: p.ProposedBy, ProposedAt: p.ProposedAt, Note: p.Note, Summary: p.Summary}
	}
	enc, err := bare.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(enc, []byte("0001-01-01")) {
		t.Fatalf("%s: zero time journaled: %s", rec.Op, enc)
	}
}

// randRecord fills each field of an op's record with a random value
// half the time, strings drawn from an alphabet that exercises the
// escapes, times in a few zones.
func randRecord(r *rand.Rand, op RecordOp, model *core.Model) *JournalRecord {
	alphabet := []string{"a", "Z", "0", " ", `"`, `\`, "/", "\n", "\t", "\x01", "\x7f", "é", "東", "\u2028", "<", "&", "\xff"}
	str := func() string {
		if r.Intn(4) == 0 {
			return ""
		}
		var b []byte
		for n := r.Intn(8); n >= 0; n-- {
			b = append(b, alphabet[r.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	some := func() bool { return r.Intn(2) == 0 }
	zones := []*time.Location{time.UTC, time.FixedZone("", 3600), time.FixedZone("", -5*3600-1800)}
	stamp := func() time.Time { return time.Unix(r.Int63n(4e9), r.Int63n(1e9)).In(zones[r.Intn(len(zones))]) }
	tm := func() time.Time { // an optional time; events and executions are always stamped
		if r.Intn(4) == 0 {
			return time.Time{}
		}
		return stamp()
	}
	num := func() int { return r.Intn(1<<20) - r.Intn(2)*(1<<19) }
	strMap := func() map[string]string {
		m := map[string]string{}
		for n := r.Intn(3); n > 0; n-- {
			m[str()] = str()
		}
		return m
	}
	rec := &JournalRecord{Op: op, Instance: str()}
	if some() {
		for n := r.Intn(4); n >= 0; n-- {
			rec.Events = append(rec.Events, Event{Seq: num(), Time: stamp(), Kind: EventKind(str()), Actor: str(),
				Phase: str(), FromPhase: str(), Detail: str(), Deviation: some(), ActionURI: str(),
				Invocation: str(), Status: str()})
		}
	}
	if some() {
		rec.Seq = int64(num())
	}
	if some() {
		rec.Resource = &resource.Ref{URI: str(), Type: str()}
		if some() {
			rec.Resource.Credentials = strMap()
		}
	}
	rec.Owner, rec.CreatedAt = str(), tm()
	if some() {
		rec.Unresolved = []string{str(), str()}
	}
	if some() {
		rec.Bindings = map[string]map[string]string{str(): strMap(), str(): strMap()}
	}
	rec.ModelDigest = str()
	if some() {
		rec.Model = model
	}
	rec.To = str()
	if some() {
		for n := r.Intn(3); n >= 0; n-- {
			rec.Executions = append(rec.Executions, ActionExecution{InvocationID: str(), ActionURI: str(),
				ActionName: str(), Phase: str(), StartedAt: stamp(), LastStatus: str(), LastDetail: str(),
				Terminal: some(), Updates: num(), DispatchErr: str()})
		}
	}
	rec.Invocation, rec.Status, rec.Detail, rec.Terminal = str(), str(), str(), some()
	rec.Proposer, rec.ProposedAt, rec.Note, rec.DiffSummary = str(), tm(), str(), str()
	rec.Landing, rec.State, rec.Current, rec.CompletedAt, rec.ModelURI = str(), State(str()), str(), tm(), str()
	rec.EventSeq, rec.TruncatedEvs, rec.Deviations = num(), num(), num()
	if some() {
		rec.Archives = []HistoryRef{{Archive: uint64(r.Int63()), From: num(), To: num()}}
	}
	if some() {
		rec.Pending = &ChangeProposal{ProposedBy: str(), ProposedAt: tm(), Note: str(), Summary: str()}
		if some() {
			rec.Pending.NewModel = model
		}
	}
	if some() {
		rec.PhaseEntered = map[string]int{str(): num(), str(): num()}
		rec.PhaseResidence = map[string]time.Duration{str(): time.Duration(r.Int63()), str(): -time.Duration(num())}
	}
	rec.ResidPhase, rec.ResidSince, rec.PendingDigest = str(), tm(), str()
	return rec
}
