package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestInstancesRoundTrip appends records, closes, reopens and expects
// the replay to stream them back in order with their ids.
func TestInstancesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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

	c2, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
func TestInstancesTornTail(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":5,"repo":"instances","op":"append","id":"li-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	c3, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
	c, err := OpenInstances(t.TempDir(), InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
func TestInstancesConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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

	c2, err := OpenInstances(dir, InstancesOptions{})
	if err != nil {
		t.Fatal(err)
	}
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
// that json.Marshal would have produced.
func TestAppendEntryEquivalence(t *testing.T) {
	cases := []Entry{
		{Seq: 1, Repo: "instances", Op: OpAppend, ID: "li-000001", Data: json.RawMessage(`{"op":"advance"}`)},
		{Seq: 42, Time: time.Date(2026, 7, 29, 10, 30, 0, 123456789, time.UTC), Repo: "models", Op: OpPut,
			ID: `uri with "quotes" and
newlines`, Data: json.RawMessage(`{"deep":{"nested":[1,2,3]}}`)},
		{Seq: 7, Repo: "execlog", Op: OpDelete},
		{Seq: 9, Repo: "grants", Op: OpPut, ID: "scope|user|rôle — 東京"},
	}
	for _, e := range cases {
		line := appendEntry(nil, e)
		if line[len(line)-1] != '\n' {
			t.Fatalf("entry line not newline-terminated: %s", line)
		}
		var fast, std Entry
		if err := json.Unmarshal(line, &fast); err != nil {
			t.Fatalf("decode fast line %s: %v", line, err)
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
