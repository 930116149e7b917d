package runtime

// The shared model table. A model version is immutable once an
// instance follows it, so every instance of one version points at one
// table entry — the model, its prepared modelCache and its digest —
// instead of owning a private copy. Records name the version by digest;
// the body reaches the journal once, in its own RecModel record ahead of
// the first record naming the version since it entered the table, and
// once per fold, at the head of the snapshot file. See the package
// doc's "Durability model" section for the invariant this keeps.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/liquidpub/gelee/internal/core"
)

// modelEntry is one immutable model version. digest, model and cache
// never change; the fields below them are guarded by modelTable.mu.
type modelEntry struct {
	digest string
	model  *core.Model
	cache  modelCache
	// head is the number of the fold whose snapshot head carries the
	// body; snapshot records of that fold name the digest alone.
	head atomic.Uint64

	// refs counts the instances following the version plus the pending
	// proposals offering it, plus verbs holding it between lookup and
	// apply.
	refs int
	// durable: a record appended now may name the digest without the
	// body — an earlier RecModel record of the journal, or the head of
	// the installed snapshot, carries it.
	durable bool
	// ptrs are the caller model pointers that resolve to this entry
	// without hashing (see acquireShared).
	ptrs []*core.Model
}

// modelTable is the runtime's table of model versions, keyed by
// digest and, for models the runtime may keep as they are, by pointer.
// An entry lives while something refers to it: when the last instance
// or proposal leaves a version, the entry goes, and a later use enters
// the version afresh — body and all.
type modelTable struct {
	mu       sync.Mutex
	byDigest map[string]*modelEntry
	byPtr    map[*core.Model]*modelEntry
	folds    uint64 // folds begun, numbering the heads
	// replaying defers every drop to finishReplay: a version the
	// replayed records leave may be named again by a later record of
	// another instance.
	replaying bool
}

func newModelTable() *modelTable {
	return &modelTable{
		byDigest: make(map[string]*modelEntry),
		byPtr:    make(map[*core.Model]*modelEntry),
	}
}

// modelDigest names a model version by its content: URI, version and
// body, as the JSON encoding every record format uses, of the model in
// its canonical form (what Clone returns; a decoded body round-trips to
// it). 128 bits of SHA-256 keep distinct versions apart.
func modelDigest(m *core.Model) (string, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("runtime: encode model %s: %w", m.URI, err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// acquireShared returns the entry of m, which the caller promises never
// to mutate (a stored version that is replaced, never edited, and so
// already in the canonical form Clone gives), with one reference held.
// A pointer the table already knows costs one map lookup; a new pointer
// is hashed once, and only a new version is validated and prepared —
// m itself becomes the entry's model.
func (t *modelTable) acquireShared(m *core.Model) (*modelEntry, error) {
	t.mu.Lock()
	if e := t.byPtr[m]; e != nil {
		e.refs++
		t.mu.Unlock()
		return e, nil
	}
	t.mu.Unlock()
	return t.intern(m, m)
}

// acquire returns the entry of the version m holds now, with one
// reference held. The caller keeps m and may edit it later, so the
// table works on a clone — which also puts the body in the canonical
// form stored and replayed models have — and a known version costs the
// clone and a hash.
func (t *modelTable) acquire(m *core.Model) (*modelEntry, error) {
	return t.intern(m.Clone(), nil)
}

// intern hashes m and returns its entry with one reference held,
// validating and preparing only a version the table lacks, which then
// owns m. alias, when non-nil, is m itself, remembered for
// acquireShared.
func (t *modelTable) intern(m, alias *core.Model) (*modelEntry, error) {
	digest, err := modelDigest(m)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byDigest[digest]
	if e == nil {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		e = t.addLocked(digest, m)
	} else if alias != nil && t.byPtr[alias] == nil {
		t.byPtr[alias] = e
		e.ptrs = append(e.ptrs, alias)
	}
	e.refs++
	return e, nil
}

// addLocked enters a new version whose model the table now owns.
func (t *modelTable) addLocked(digest string, m *core.Model) *modelEntry {
	e := &modelEntry{digest: digest, model: m, cache: buildModelCache(m), ptrs: []*core.Model{m}}
	t.byDigest[digest] = e
	t.byPtr[m] = e
	return e
}

// resolve returns, with one reference held, the entry a replayed record
// names: by digest, interning the inline body when the record carries
// one (a RecModel record, a snapshot record whose head lacked it, or a
// record of an older data dir, which names no digest). Replayed entries
// are durable: the replayed files carry their bodies.
func (t *modelTable) resolve(digest string, inline *core.Model) (*modelEntry, error) {
	if digest == "" {
		if inline == nil {
			return nil, nil
		}
		var err error
		if digest, err = modelDigest(inline); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.byDigest[digest]
	if e == nil {
		if inline == nil {
			return nil, fmt.Errorf("runtime: replay names unknown model %s", digest)
		}
		if err := inline.Validate(); err != nil {
			return nil, err
		}
		e = t.addLocked(digest, inline)
	}
	e.durable = true
	e.refs++
	return e, nil
}

// retain adds a reference to an entry the caller already holds one on.
func (t *modelTable) retain(e *modelEntry) {
	t.mu.Lock()
	e.refs++
	t.mu.Unlock()
}

// beginReplay opens a replay (see replaying).
func (t *modelTable) beginReplay() {
	t.mu.Lock()
	t.replaying = true
	t.mu.Unlock()
}

// finishReplay closes a replay: the versions replay entered that
// nothing follows leave the table.
func (t *modelTable) finishReplay() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.replaying = false
	for _, e := range t.byDigest {
		if e.refs == 0 {
			t.dropLocked(e)
		}
	}
}

// release drops one reference; the last one takes the entry out.
func (t *modelTable) release(e *modelEntry) {
	if e == nil {
		return
	}
	t.mu.Lock()
	if e.refs--; e.refs == 0 && !t.replaying {
		t.dropLocked(e)
	}
	t.mu.Unlock()
}

func (t *modelTable) dropLocked(e *modelEntry) {
	if t.byDigest[e.digest] != e {
		return
	}
	delete(t.byDigest, e.digest)
	for _, p := range e.ptrs {
		delete(t.byPtr, p)
	}
}

// needsBody reports whether a record naming e must be preceded by a
// RecModel record carrying its body.
func (t *modelTable) needsBody(e *modelEntry) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !e.durable
}

// markDurable records that e's RecModel record committed.
func (t *modelTable) markDurable(e *modelEntry) {
	t.mu.Lock()
	e.durable = true
	t.mu.Unlock()
}

// beginFold numbers a fold and returns the versions its snapshot head
// must carry: every entry, as each one is referred to — by an instance,
// a pending proposal or a verb between lookup and commit. A record
// replay applies after this fold installs was either checked for
// durability after this call (records at or below their instance's
// fold boundary are skipped), or was built by a verb holding its
// version's reference now; either way the body it leans on is in the
// head or in a RecModel record the fold keeps.
func (t *modelTable) beginFold() (fold uint64, head []*modelEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.folds++
	for _, e := range t.byDigest {
		e.head.Store(t.folds)
		head = append(head, e)
	}
	return t.folds, head
}

// ModelTableStats is the model-table section of the admin runtime
// payload.
type ModelTableStats struct {
	// Entries is the number of model versions held.
	Entries int `json:"entries"`
	// Refs sums the references: following instances plus pending
	// proposals.
	Refs int `json:"refs"`
}

func (t *modelTable) stats() ModelTableStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := ModelTableStats{Entries: len(t.byDigest)}
	for _, e := range t.byDigest {
		st.Refs += e.refs
	}
	return st
}
