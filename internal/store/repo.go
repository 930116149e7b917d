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

	// cache is the shard's LRU of prepared shared values (GetShared);
	// nil unless EnableReadCache was called. Invalidated write-through
	// on every mutation of this shard — see readcache.go.
	cache *readCache[T]
}

// noteRead records one read in the shard's counters and (sampled)
// hot-key sketch — shared by Get and the cache-hit path of GetShared so
// the admin read stats count cached reads too.
func (sh *repoShard[T]) noteRead(id string, hit bool) {
	n := sh.gets.Add(1)
	if hit {
		sh.hits.Add(1)
	}
	if n%hotSampleEvery == 0 {
		sh.noteHot(id)
	}
}

// invalidateCache drops id from the shard's read cache (and voids any
// in-flight fill). Called on every mutation path: live Put/Delete
// commit hooks and journal replay.
func (sh *repoShard[T]) invalidateCache(id string) {
	if sh.cache != nil {
		sh.cache.invalidate(id)
	}
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
// hot-key sketch (approximate counts, dominant readers first) — the
// data grounding any future read-cache sizing.
type RepoReadStats struct {
	Gets    uint64   `json:"gets"`
	Hits    uint64   `json:"hits"`
	Misses  uint64   `json:"misses"`
	HotKeys []HotKey `json:"hot_keys,omitempty"`

	// Read-cache counters (EnableReadCache); all zero — and CacheCap
	// zero — when the cache is disabled. CacheHits/CacheMisses count
	// GetShared lookups against the LRU, CacheEvictions counts values
	// displaced by the per-shard bound, CacheRaced counts fills
	// discarded because a write landed mid-fill, CacheSize/CacheCap are
	// current and maximum entries summed across shards.
	CacheHits      uint64 `json:"cache_hits,omitempty"`
	CacheMisses    uint64 `json:"cache_misses,omitempty"`
	CacheEvictions uint64 `json:"cache_evictions,omitempty"`
	CacheRaced     uint64 `json:"cache_raced,omitempty"`
	CacheSize      int    `json:"cache_size,omitempty"`
	CacheCap       int    `json:"cache_cap,omitempty"`
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

	// prepare converts a stored value into the immutable shared form
	// GetShared hands out (typically a deep clone for pointer types).
	// Set by EnableReadCache; nil means values are shared as stored.
	prepare func(T) T
	// cacheCap is the per-shard LRU bound (0 = cache disabled).
	cacheCap int
}

// EnableReadCache puts a bounded LRU of prepared shared values in front
// of this repository's GetShared path, entriesPerShard entries per lock
// stripe. prepare converts a stored value into the immutable form
// handed to callers (for pointer types, a deep clone — cached values
// are shared across callers and must never be mutated); nil shares the
// stored value directly. entriesPerShard <= 0 leaves the cache off
// (GetShared still works, preparing on every call).
//
// Must be called before the store is used concurrently (i.e. alongside
// NewRepo, before Load finishes); it is not synchronized against
// in-flight reads.
func (r *Repo[T]) EnableReadCache(entriesPerShard int, prepare func(T) T) {
	r.prepare = prepare
	if entriesPerShard <= 0 {
		return
	}
	r.cacheCap = entriesPerShard
	for _, sh := range r.shards {
		sh.cache = newReadCache[T](entriesPerShard)
	}
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
		sh.invalidateCache(id)
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
	sh.noteRead(id, ok)
	return v, ok
}

// GetShared returns the prepared, shareable form of the value under id
// — the read-cache hot path. The returned value may be handed to any
// number of concurrent callers and MUST NOT be mutated. With the cache
// enabled a hit skips the prepare step entirely (for clone-prepared
// pointer types that is the whole defensive-copy cost); a miss prepares
// once and caches the result under the epoch fill protocol, so a
// cached value can never outlive the record it was decoded from. With
// no cache this degrades to Get + prepare.
func (r *Repo[T]) GetShared(id string) (T, bool) {
	sh := r.shardFor(id)
	if c := sh.cache; c != nil {
		if v, ok := c.get(id); ok {
			sh.noteRead(id, true)
			return v, true
		}
		epoch := c.beginFill()
		sh.mu.RLock()
		v, ok := sh.items[id]
		sh.mu.RUnlock()
		sh.noteRead(id, ok)
		if !ok {
			var zero T
			return zero, false
		}
		if r.prepare != nil {
			v = r.prepare(v)
		}
		c.fill(id, v, epoch)
		return v, true
	}
	v, ok := r.Get(id)
	if !ok {
		var zero T
		return zero, false
	}
	if r.prepare != nil {
		v = r.prepare(v)
	}
	return v, true
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
		sh.invalidateCache(id)
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
		sh.invalidateCache(e.ID)
	case OpDelete:
		sh.mu.Lock()
		delete(sh.items, e.ID)
		sh.mu.Unlock()
		sh.invalidateCache(e.ID)
	default:
		return fmt.Errorf("store: %s: replay unknown op %q", r.name, e.Op)
	}
	return nil
}

// PurgeReadCache empties every shard's read cache and voids in-flight
// fills (implements the store-wide PurgeReadCaches hook — quarantine,
// repair, anything that changes records out from under the decoded
// state). It takes only the per-shard cache locks, never the store
// mutex, so it is safe to call from inside integrity callbacks that
// fire while the store is loading.
func (r *Repo[T]) PurgeReadCache() {
	for _, sh := range r.shards {
		if sh.cache != nil {
			sh.cache.purge()
		}
	}
}

// foldEntries implements journaled: one put per live item, boundary 0.
// Repositories are keyed last-writer-wins, so replaying a folded tail
// entry over the fold image converges to the same value — no skip
// needed, which also spares the repo from tracking applied seqs across
// its lock stripes. The Archiver is unused: live state is already
// minimal, there is no cold history to spill.
func (r *Repo[T]) foldEntries(Archiver) ([]Entry, uint64, func()) {
	pairs := r.pairs()
	out := make([]Entry, 0, len(pairs))
	for _, p := range pairs {
		data, err := json.Marshal(p.v)
		if err != nil {
			continue // unencodable live value: skip from snapshot
		}
		out = append(out, Entry{Repo: r.name, Op: OpPut, ID: p.id, Data: data})
	}
	return out, 0, nil
}

// replayKey implements journaled: entries of different keys commute
// (separate map slots), so parallel replay lanes shard by ID.
func (r *Repo[T]) replayKey(e Entry) string { return e.ID }

// readStats merges the shards' read counters, cache counters and
// hot-key sketches.
func (r *Repo[T]) readStats() RepoReadStats {
	var st RepoReadStats
	merged := make(map[string]uint64)
	for _, sh := range r.shards {
		st.Gets += sh.gets.Load()
		st.Hits += sh.hits.Load()
		if sh.cache != nil {
			h, m, e, ra, size := sh.cache.stats()
			st.CacheHits += h
			st.CacheMisses += m
			st.CacheEvictions += e
			st.CacheRaced += ra
			st.CacheSize += size
			st.CacheCap += r.cacheCap
		}
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
