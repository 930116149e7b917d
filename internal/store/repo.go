package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/liquidpub/gelee/internal/shardkey"
)

// repoShard is one lock stripe of a repository: its own mutex, its own
// slice of the key space, plus read counters. gets/hits are atomics so
// the Get hot path never takes an extra lock; the hot-key sketch is
// sampled (one Get in hotSampleEvery) under its own small mutex.
type repoShard[T any] struct {
	mu    sync.RWMutex
	items map[string]T

	gets  atomic.Uint64
	hits  atomic.Uint64
	hotMu sync.Mutex
	hot   map[string]uint64 // space-saving top-k sketch of read keys
}

// Hot-key sketch tuning: how many candidate keys each shard tracks
// (space-saving: a new key displaces the current minimum, inheriting
// its count) and the Get sampling stride that keeps the sketch off the
// hot path.
const (
	hotKeysPerShard = 8
	hotSampleEvery  = 8
)

// noteHot records one sampled read in the shard's space-saving sketch.
func (sh *repoShard[T]) noteHot(id string) {
	sh.hotMu.Lock()
	defer sh.hotMu.Unlock()
	if sh.hot == nil {
		sh.hot = make(map[string]uint64, hotKeysPerShard)
	}
	if _, ok := sh.hot[id]; ok {
		sh.hot[id]++
		return
	}
	if len(sh.hot) < hotKeysPerShard {
		sh.hot[id] = 1
		return
	}
	// Displace the current minimum; the newcomer inherits its count + 1
	// (the space-saving overestimate, bounded by the evicted count).
	var minID string
	var minN uint64
	first := true
	for k, n := range sh.hot {
		if first || n < minN {
			minID, minN, first = k, n, false
		}
	}
	delete(sh.hot, minID)
	sh.hot[id] = minN + 1
}

// HotKey is one entry of a repository's hot-key report.
type HotKey struct {
	ID    string `json:"id"`
	Count uint64 `json:"count"`
}

// RepoReadStats reports a repository's read traffic for the admin
// endpoint: total Gets, how many hit a live key, and the sampled
// hot-key sketch (approximate counts, dominant readers first), which
// shows an operator which keys dominate the read load.
type RepoReadStats struct {
	Gets    uint64   `json:"gets"`
	Hits    uint64   `json:"hits"`
	Misses  uint64   `json:"misses"`
	HotKeys []HotKey `json:"hot_keys,omitempty"`

	// Always 0 since the read cache went; perfbench/trace.go still reads them.
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	CacheMisses    uint64 `json:"cache_misses,omitempty"`
	CacheEvictions uint64 `json:"cache_evictions,omitempty"`
}

// Repo is a typed, journal-backed key/value repository. T must be JSON
// (de)serializable; pointers and structs both work. All operations are
// safe for concurrent use: state is striped across the store's shard
// count so that writers to different resources never contend on a
// lock, and the journal write itself rides the engine's combined flush.
type Repo[T any] struct {
	name   string
	store  *Store
	shards []*repoShard[T]
}

// NewRepo creates and registers a repository under name. It must be
// called before Store.Load so that replay can find it.
func NewRepo[T any](s *Store, name string) (*Repo[T], error) {
	n := s.numShards()
	r := &Repo[T]{name: name, store: s, shards: make([]*repoShard[T], n)}
	for i := range r.shards {
		r.shards[i] = &repoShard[T]{items: make(map[string]T)}
	}
	if err := s.register(name, r); err != nil {
		return nil, err
	}
	return r, nil
}

// MustRepo is NewRepo, panicking on duplicate registration — the wiring
// error is programmer-fatal.
func MustRepo[T any](s *Store, name string) *Repo[T] {
	r, err := NewRepo[T](s, name)
	if err != nil {
		panic(err)
	}
	return r
}

// shardFor hashes id onto a lock stripe. The inlined FNV-1a in
// shardkey keeps this allocation-free on the per-Get/Put hot path.
func (r *Repo[T]) shardFor(id string) *repoShard[T] {
	return r.shards[shardkey.Index(id, len(r.shards))]
}

// Put stores v under id, overwriting any previous value, and journals
// the mutation.
func (r *Repo[T]) Put(id string, v T) error {
	if id == "" {
		return fmt.Errorf("store: %s: empty id", r.name)
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %s: encode %q: %w", r.name, id, err)
	}
	sh := r.shardFor(id)
	return r.store.commit(Entry{Repo: r.name, Op: OpPut, ID: id, Data: data}, func(uint64) {
		sh.mu.Lock()
		sh.items[id] = v
		sh.mu.Unlock()
	})
}

// Get returns the value stored under id. Read stats ride along: the
// counters are atomics and the hot-key sketch is only touched on a
// sampled fraction of calls, so the hot path stays one RLock deep.
func (r *Repo[T]) Get(id string) (T, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	v, ok := sh.items[id]
	sh.mu.RUnlock()
	n := sh.gets.Add(1)
	if ok {
		sh.hits.Add(1)
	}
	if n%hotSampleEvery == 0 {
		sh.noteHot(id)
	}
	return v, ok
}

// Delete removes id. Deleting a missing id is a no-op (and is not
// journaled).
func (r *Repo[T]) Delete(id string) error {
	sh := r.shardFor(id)
	sh.mu.RLock()
	_, ok := sh.items[id]
	sh.mu.RUnlock()
	if !ok {
		return nil
	}
	return r.store.commit(Entry{Repo: r.name, Op: OpDelete, ID: id}, func(uint64) {
		sh.mu.Lock()
		delete(sh.items, id)
		sh.mu.Unlock()
	})
}

// ids collects every key across shards, unsorted.
func (r *Repo[T]) ids() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.RLock()
		for id := range sh.items {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// IDs returns all keys, sorted.
func (r *Repo[T]) IDs() []string {
	ids := r.ids()
	sort.Strings(ids)
	return ids
}

// kv is an (id, value) pair collected from a shard scan.
type kv[T any] struct {
	id string
	v  T
}

// pairs collects every (id, value) across shards in one pass per
// shard, sorted by id.
func (r *Repo[T]) pairs() []kv[T] {
	var out []kv[T]
	for _, sh := range r.shards {
		sh.mu.RLock()
		for id, v := range sh.items {
			out = append(out, kv[T]{id, v})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// List returns all values ordered by id.
func (r *Repo[T]) List() []T {
	pairs := r.pairs()
	out := make([]T, len(pairs))
	for i, p := range pairs {
		out[i] = p.v
	}
	return out
}

// Len returns the number of stored values.
func (r *Repo[T]) Len() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.RLock()
		n += len(sh.items)
		sh.mu.RUnlock()
	}
	return n
}

// size implements journaled.
func (r *Repo[T]) size() int { return r.Len() }

// applyEntry implements journaled: replay a mutation during Load.
func (r *Repo[T]) applyEntry(e Entry) error {
	sh := r.shardFor(e.ID)
	switch e.Op {
	case OpPut:
		var v T
		if err := json.Unmarshal(e.Data, &v); err != nil {
			return fmt.Errorf("store: %s: replay decode %q: %w", r.name, e.ID, err)
		}
		sh.mu.Lock()
		sh.items[e.ID] = v
		sh.mu.Unlock()
	case OpDelete:
		sh.mu.Lock()
		delete(sh.items, e.ID)
		sh.mu.Unlock()
	default:
		return fmt.Errorf("store: %s: replay unknown op %q", r.name, e.Op)
	}
	return nil
}

// foldEntries implements journaled: one put per live item, boundary 0.
// Repositories are keyed last-writer-wins, so replaying a folded tail
// entry over the fold image converges to the same value — no skip
// needed, which also spares the repo from tracking applied seqs across
// its lock stripes.
func (r *Repo[T]) foldEntries() ([]Entry, uint64) {
	pairs := r.pairs()
	out := make([]Entry, 0, len(pairs))
	for _, p := range pairs {
		data, err := json.Marshal(p.v)
		if err != nil {
			continue // unencodable live value: skip from snapshot
		}
		out = append(out, Entry{Repo: r.name, Op: OpPut, ID: p.id, Data: data})
	}
	return out, 0
}

// replayKey implements journaled: entries of different keys commute
// (separate map slots), so parallel replay lanes shard by ID.
func (r *Repo[T]) replayKey(e Entry) string { return e.ID }

// readStats merges the shards' read counters and hot-key sketches.
func (r *Repo[T]) readStats() RepoReadStats {
	var st RepoReadStats
	merged := make(map[string]uint64)
	for _, sh := range r.shards {
		st.Gets += sh.gets.Load()
		st.Hits += sh.hits.Load()
		sh.hotMu.Lock()
		for k, n := range sh.hot {
			merged[k] += n
		}
		sh.hotMu.Unlock()
	}
	st.Misses = st.Gets - st.Hits
	if len(merged) > 0 {
		keys := make([]HotKey, 0, len(merged))
		for k, n := range merged {
			keys = append(keys, HotKey{ID: k, Count: n})
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Count != keys[j].Count {
				return keys[i].Count > keys[j].Count
			}
			return keys[i].ID < keys[j].ID
		})
		if len(keys) > hotKeysPerShard {
			keys = keys[:hotKeysPerShard]
		}
		st.HotKeys = keys
	}
	return st
}
