package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property: for any random sequence of puts and deletes, replaying the
// journal reproduces exactly the same final state (recovery ≡ live
// state). This is the core durability invariant of the data tier.
func TestQuickReplayEqualsLiveState(t *testing.T) {
	type op struct {
		Del bool
		ID  uint8 // small key space to force overwrites and deletes
		Rev int
	}
	f := func(ops []op) bool {
		dir := t.TempDir()
		s := Open(dir, Options{})
		repo := MustRepo[doc](s, "docs")
		if err := s.Load(); err != nil {
			t.Log(err)
			return false
		}
		for _, o := range ops {
			id := fmt.Sprintf("k%d", o.ID%8)
			if o.Del {
				if err := repo.Delete(id); err != nil {
					t.Log(err)
					return false
				}
			} else {
				if err := repo.Put(id, doc{Title: id, Rev: o.Rev}); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		want := make(map[string]doc)
		for _, id := range repo.IDs() {
			v, _ := repo.Get(id)
			want[id] = v
		}
		if err := s.Close(); err != nil {
			t.Log(err)
			return false
		}

		s2 := Open(dir, Options{})
		repo2 := MustRepo[doc](s2, "docs")
		if err := s2.Load(); err != nil {
			t.Log(err)
			return false
		}
		defer s2.Close()
		got := make(map[string]doc)
		for _, id := range repo2.IDs() {
			v, _ := repo2.Get(id)
			got[id] = v
		}
		return reflect.DeepEqual(want, got)
	}
	cfg := &quick.Config{MaxCount: 20, Values: func(args []reflect.Value, r *rand.Rand) {
		n := r.Intn(40)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{Del: r.Intn(4) == 0, ID: uint8(r.Intn(8)), Rev: r.Intn(100)}
		}
		args[0] = reflect.ValueOf(ops)
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: compaction never changes observable state, for any workload.
func TestQuickCompactionPreservesState(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s := Open(dir, Options{})
		repo := MustRepo[doc](s, "docs")
		log := MustLog(s, "log")
		if err := s.Load(); err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("k%d", r.Intn(5))
			if r.Intn(5) == 0 {
				repo.Delete(id)
			} else {
				repo.Put(id, doc{Title: id, Rev: i})
			}
			if r.Intn(2) == 0 {
				log.Append(LogEntry{Instance: id, Kind: "tick"})
			}
		}
		beforeIDs := repo.IDs()
		beforeLog := log.Len()
		if err := s.Compact(); err != nil {
			t.Log(err)
			return false
		}
		if !reflect.DeepEqual(beforeIDs, repo.IDs()) || log.Len() != beforeLog {
			return false
		}
		s.Close()

		s2 := Open(dir, Options{})
		repo2 := MustRepo[doc](s2, "docs")
		log2 := MustLog(s2, "log")
		if err := s2.Load(); err != nil {
			t.Log(err)
			return false
		}
		defer s2.Close()
		return reflect.DeepEqual(beforeIDs, repo2.IDs()) && log2.Len() == beforeLog
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
