package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestInstancesRoundTrip appends records, closes, reopens and expects
// the replay to stream them back in order with their ids.
func TestInstancesRoundTrip(t *testing.T) { eachFS(t, testInstancesRoundTrip) }

func testInstancesRoundTrip(t *testing.T, fsys FS, dir string) {
	c := OpenInstances(dir, InstancesOptions{FS: fsys})
	if err := c.Replay(func(string, []byte) error {
		t.Fatal("fresh journal replayed a record")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("li-%06d", i%3)
		if err := c.Append(id, []byte(fmt.Sprintf(`{"op":"advance","n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Appends != 10 {
		t.Fatalf("appends = %d, want 10", st.Appends)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}

	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	var got []string
	if err := c2.Replay(func(id string, data []byte) error {
		var rec struct {
			N int `json:"n"`
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		got = append(got, fmt.Sprintf("%s:%d", id, rec.N))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || c2.Replayed() != 10 {
		t.Fatalf("replayed %d records (%v)", len(got), got)
	}
	for i, g := range got {
		want := fmt.Sprintf("li-%06d:%d", i%3, i)
		if g != want {
			t.Fatalf("record %d = %q, want %q", i, g, want)
		}
	}
	// The reopened collection appends at the right sequence.
	if err := c2.Append("li-000009", []byte(`{"op":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if seq := c2.Stats().LastSeq; seq != 11 {
		t.Fatalf("last seq = %d, want 11", seq)
	}
}

// TestInstancesTornTail writes a torn final line (a crash mid-batch)
// and expects replay to drop it silently and keep appending cleanly.
func TestInstancesTornTail(t *testing.T) { eachFS(t, testInstancesTornTail) }

func testInstancesTornTail(t *testing.T, fsys FS, dir string) {
	c := OpenInstances(dir, InstancesOptions{FS: fsys})
	if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.Append("li-000001", []byte(`{"op":"advance"}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	appendFile(t, fsys, filepath.Join(dir, journalName), []byte(`{"seq":5,"repo":"instances","op":"append","id":"li-0000`))

	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	n := 0
	if err := c2.Replay(func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replayed %d records, want 4 (torn tail dropped)", n)
	}
	// The torn bytes were truncated: the next append must land on a
	// record boundary and survive another replay.
	if err := c2.Append("li-000002", []byte(`{"op":"report"}`)); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c3.Close()
	n = 0
	if err := c3.Replay(func(string, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replayed %d records after torn-tail recovery, want 5", n)
	}
}

// TestInstancesAppendBeforeReplay pins the lifecycle contract.
func TestInstancesAppendBeforeReplay(t *testing.T) {
	c := OpenInstances(t.TempDir(), InstancesOptions{})
	if err := c.Append("li-000001", []byte(`{}`)); err == nil {
		t.Fatal("append before Replay succeeded")
	}
	if err := c.Append("", []byte(`{}`)); err == nil {
		t.Fatal("append with empty id succeeded")
	}
}

// TestInstancesConcurrentAppend drives the flush-combining path from
// many goroutines (the -race exercise) and verifies nothing is lost
// and flushes were combined.
func TestInstancesConcurrentAppend(t *testing.T) { eachFS(t, testInstancesConcurrentAppend) }

func testInstancesConcurrentAppend(t *testing.T, fsys FS, dir string) {
	c := OpenInstances(dir, InstancesOptions{FS: fsys})
	if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := c.Append(fmt.Sprintf("li-%06d", w), []byte(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	perID := make(map[string][]int)
	if err := c2.Replay(func(id string, data []byte) error {
		var rec struct{ I int }
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		perID[id] = append(perID[id], rec.I)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(perID) != writers {
		t.Fatalf("ids replayed = %d, want %d", len(perID), writers)
	}
	// Per-instance record order is append order.
	for id, seqs := range perID {
		if len(seqs) != perWriter {
			t.Fatalf("%s: %d records, want %d", id, len(seqs), perWriter)
		}
		for i, s := range seqs {
			if s != i {
				t.Fatalf("%s: record %d out of order: %d", id, i, s)
			}
		}
	}
}

// TestAppendEntryEquivalence pins the hand-rolled journal-line codec:
// whatever appendEntry emits, encoding/json decodes to the same Entry
// that json.Marshal would have produced, and scanEntry reads it in one
// pass to the same Entry encoding/json does.
func TestAppendEntryEquivalence(t *testing.T) {
	cases := []Entry{
		{Seq: 1, Repo: "instances", Op: OpAppend, ID: "li-000001", Data: json.RawMessage(`{"op":"advance"}`)},
		{Seq: 42, Time: time.Date(2026, 7, 29, 10, 30, 0, 123456789, time.UTC), Repo: "models", Op: OpPut,
			ID: `uri with "quotes" and
newlines`, Data: json.RawMessage(`{"deep":{"nested":[1,2,3]}}`)},
		{Seq: 7, Repo: "execlog", Op: OpDelete},
		{Seq: 9, Repo: "grants", Op: OpPut, ID: "scope|user|rôle — 東京"},
		{Repo: "instances", Op: opShared, ID: "d1", Data: json.RawMessage(`[1,{"a":"}]\\\""}]`)},
		{Seq: 3, Repo: "docs", Op: OpPut, ID: "k", Data: json.RawMessage(`"s"`)},
	}
	for _, e := range cases {
		line := appendEntry(nil, e)
		if line[len(line)-1] != '\n' {
			t.Fatalf("entry line not newline-terminated: %s", line)
		}
		var fast, std, scanned Entry
		if err := json.Unmarshal(line, &fast); err != nil {
			t.Fatalf("decode fast line %s: %v", line, err)
		}
		if !scanEntry(line[:len(line)-1], &scanned) {
			t.Fatalf("scanEntry fell back on %s", line)
		}
		if !reflect.DeepEqual(scanned, fast) {
			t.Fatalf("scan %s:\nscan %#v\njson %#v", line, scanned, fast)
		}
		stdLine, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(stdLine, &std); err != nil {
			t.Fatal(err)
		}
		// Times compare by instant (decode re-derives the location).
		if !fast.Time.Equal(std.Time) {
			t.Fatalf("time round trip: %v vs %v", fast.Time, std.Time)
		}
		fast.Time, std.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("codec divergence:\nfast %+v\nstd  %+v", fast, std)
		}
	}
}

// TestInstancesHistoryArchives: batches a snapshot source archives
// during a fold are referenced from that fold's snapshot on — carried
// by every later fold, adopted on reopen and read back verified — while
// the archive of a fold that failed is an orphan the next open removes.
func TestInstancesHistoryArchives(t *testing.T) { eachFS(t, testInstancesHistoryArchives) }

func testInstancesHistoryArchives(t *testing.T, fsys FS, dir string) {
	c, _, err := openInstancesDir(t, fsys, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append("li-1", []byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	batches := func(ids ...string) iter.Seq2[string, []byte] {
		return func(yield func(string, []byte) bool) {
			for _, id := range ids {
				if !yield(id, []byte(`["`+id+`"]`)) {
					return
				}
			}
		}
	}
	var archived []uint64
	fail := errors.New("emit failed")
	failNext := false
	c.SetSnapshotSource(func(w *SnapshotWriter) (func(), error) {
		n, err := c.ArchiveHistory(batches("li-1", "li-2"))
		if err != nil {
			return nil, err
		}
		if failNext {
			return nil, fail
		}
		if err := w.Emit("li-1", []byte(`{"snap":1}`)); err != nil {
			return nil, err
		}
		return func() { archived = append(archived, n) }, nil
	})
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	failNext = true
	if err := c.Append("li-1", []byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); !errors.Is(err, fail) {
		t.Fatalf("failing fold = %v", err)
	}
	failNext = false
	if err := c.Append("li-1", []byte(`{"n":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(archived, []uint64{1, 3}) {
		t.Fatalf("installed folds archived %v, want [1 3]", archived)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, ids, err := openInstancesDir(t, fsys, dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !slices.Equal(ids, []string{"li-1"}) {
		t.Fatalf("replay handed %v to the runtime, want the snapshot record only", ids)
	}
	st := c.Stats()
	if st.Archives != 2 || st.OrphanArchives != 1 || st.Replay.ArchiveRefs != 2 {
		t.Fatalf("reopen: %d archives, %d orphans removed, %d refs", st.Archives, st.OrphanArchives, st.Replay.ArchiveRefs)
	}
	for _, n := range archived {
		var got []string
		if err := c.ReadHistory(n, func(id string, data []byte) error {
			got = append(got, id+"="+string(data))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []string{`li-1=["li-1"]`, `li-2=["li-2"]`}) {
			t.Fatalf("archive %d holds %v", n, got)
		}
	}
	if err := c.ReadHistory(2, func(string, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("orphaned archive read = %v, want ErrCorrupt", err)
	}
}

// TestInstancesParallelReplaySharedBarrier: a shared record is applied
// after every record written before it and before every record written
// after it, even when the parallel replay spreads instances across
// lanes — records of any instance may depend on it.
func TestInstancesParallelReplaySharedBarrier(t *testing.T) {
	eachFS(t, testInstancesParallelReplaySharedBarrier)
}

func testInstancesParallelReplaySharedBarrier(t *testing.T, fsys FS, dir string) {
	c := OpenInstances(dir, InstancesOptions{FS: fsys})
	if err := c.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	const shared, perShared = 20, 16
	for s := 0; s < shared; s++ {
		if err := c.AppendShared(fmt.Sprintf("s%d", s), []byte(fmt.Sprintf(`%d`, s))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perShared; i++ {
			if err := c.Append(fmt.Sprintf("li-%d", i), []byte(fmt.Sprintf(`%d`, s))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := OpenInstances(dir, InstancesOptions{FS: fsys})
	defer c2.Close()
	var mu sync.Mutex
	applied, seen := -1, 0
	if err := c2.ReplayParallel(4, func(id string, data []byte) error {
		n, err := strconv.Atoi(string(data))
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if strings.HasPrefix(id, "s") {
			if seen != n*perShared {
				return fmt.Errorf("shared record %d applied after %d records, want %d", n, seen, n*perShared)
			}
			applied = n
			return nil
		}
		if applied != n {
			return fmt.Errorf("record of shared %d applied with shared %d current", n, applied)
		}
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if applied != shared-1 || seen != shared*perShared {
		t.Fatalf("replayed %d shared and %d records", applied+1, seen)
	}
}
