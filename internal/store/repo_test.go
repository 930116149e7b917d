package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// versioned is the test value for staleness checks: Version is
// monotone per key, so any reader observing a smaller version than the
// last acknowledged write has seen a stale value.
type versioned struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
}

// TestRepoGetNeverStale is the -race stress for model-read coherence:
// readers interleaved with writers, folds and seals must never observe
// a value older than the last acknowledged write to its key. The
// commit callback has run by the time Put returns, so a version is
// published to lastAcked only after Put returns; any later Get must see
// at least that version.
func TestRepoGetNeverStale(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{SegmentMaxBytes: 4096})
	repo := MustRepo[*versioned](s, "vals")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const keys = 8
	lastAcked := make([]atomic.Int64, keys)
	keyID := func(k int) string { return fmt.Sprintf("key-%d", k) }
	for k := 0; k < keys; k++ {
		if err := repo.Put(keyID(k), &versioned{ID: keyID(k), Version: 1}); err != nil {
			t.Fatal(err)
		}
		lastAcked[k].Store(1)
	}

	stop := make(chan struct{})
	var fail atomic.Value // first failure message
	var compactions atomic.Int64
	var wg sync.WaitGroup

	// Writer: bump versions round-robin, publish after ack.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ver := int64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ver++
			k := int(ver) % keys
			if err := repo.Put(keyID(k), &versioned{ID: keyID(k), Version: ver}); err != nil {
				fail.Store(fmt.Sprintf("put: %v", err))
				return
			}
			lastAcked[k].Store(ver)
		}
	}()

	// Folder: seal + fold concurrently (Compact = seal then fold).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			if err := s.Compact(); err != nil {
				fail.Store(fmt.Sprintf("compact: %v", err))
				return
			}
			compactions.Add(1)
		}
	}()

	// Readers: load the floor BEFORE the read; observed >= floor or Get
	// served a value older than an acknowledged write.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				i++
				floor := lastAcked[k].Load()
				v, ok := repo.Get(keyID(k))
				if !ok {
					fail.Store(fmt.Sprintf("key %d vanished", k))
					return
				}
				if v.Version < floor {
					fail.Store(fmt.Sprintf("stale read: key %d version %d < acked %d", k, v.Version, floor))
					return
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(msg)
	}
	// The writer's versions run 2, 3, ..., so the highest acknowledged
	// version minus one is the number of writes it made.
	var writes int64
	for k := range lastAcked {
		writes = max(writes, lastAcked[k].Load()-1)
	}
	if st := repo.readStats(); st.Gets == 0 || writes == 0 || compactions.Load() == 0 {
		t.Fatalf("stress exercised nothing: %d gets, %d writes, %d compactions",
			st.Gets, writes, compactions.Load())
	}
}

// TestRepoRepairedDirServesRepairedState is the fsck -repair
// regression: a data directory that was repaired offline must serve
// the repaired (possibly rewound) state on reopen.
func TestRepoRepairedDirServesRepairedState(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Store, *Repo[*versioned]) {
		s := Open(dir, Options{})
		repo := MustRepo[*versioned](s, "vals")
		if err := s.Load(); err != nil {
			t.Fatal(err)
		}
		return s, repo
	}

	s, repo := open()
	if err := repo.Put("a", &versioned{ID: "a", Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Put("a", &versioned{ID: "a", Version: 2}); err != nil {
		t.Fatal(err)
	}
	if v, _ := repo.Get("a"); v.Version != 2 {
		t.Fatalf("pre-corruption version = %d, want 2", v.Version)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the tail of the active journal (the v2 record), then
	// repair offline: fsck truncates the torn tail, rewinding to v1.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := fsck(osFS{}, dir, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("fsck repaired nothing: %+v", rep)
	}

	s2, repo2 := open()
	defer s2.Close()
	v, ok := repo2.Get("a")
	if !ok || v.Version != 1 {
		t.Fatalf("post-repair Get = %+v, %v; want version 1 (repaired state)", v, ok)
	}
}
