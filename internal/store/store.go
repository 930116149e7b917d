package store

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee/internal/vclock"
)

// journaled is implemented by every repository and log attached to a
// Store; it lets the store replay journal entries into them, capture
// fold images for snapshot compaction, and report live sizes for
// stats.
type journaled interface {
	applyEntry(Entry) error
	// foldEntries returns the live-entry image plus the fold boundary
	// (the journal sequence of the newest entry the image reflects) and
	// an optional commit hook the engine runs once the snapshot is
	// durably installed. Replay skips tail entries at or below the
	// boundary. Idempotent parts (keyed repositories, where re-applying
	// per-key history converges) report boundary 0 and are never
	// skipped; append-only parts (logs) must report their real boundary
	// or folding would double their history. Parts may spill cold state
	// through the Archiver (nil for engines without archive storage)
	// and retire the in-memory copy in the commit hook — never earlier.
	foldEntries(ar Archiver) ([]Entry, uint64, func())
	// replayKey buckets an entry for parallel replay: entries with the
	// same (part, key) pair must apply in stream order, entries with
	// different keys commute. Keyed repositories return the entry ID;
	// logs return "" so their whole stream stays ordered.
	replayKey(e Entry) string
	size() int
}

// Store coordinates a set of named repositories and logs over a single
// shared Engine. Create repositories with NewRepo / NewLog, then call
// Load once to replay any existing state, then use the store.
//
// Concurrency: mutations from different goroutines proceed in
// parallel — the store read-lock is shared on the commit path, the
// engine combines concurrent flushes, and repositories stripe their
// own locks per shard. Load and Close take the lock exclusively. Compact holds it
// shared: compaction is seal-then-fold on the segmented journal and
// runs concurrently with writers (see the package doc).
type Store struct {
	mu         sync.RWMutex
	engine     Engine
	clock      vclock.Clock
	parts      map[string]journaled
	shards     int
	window     int // log live-window entry count
	loaded     bool
	loadCalled bool
	closed     bool

	// onAppendResult observes every commit outcome (Options.
	// OnAppendResult); nil = no observer.
	onAppendResult func(error)

	// Background folder, started by Load; the engine's OnSeal (wired
	// by Open) pokes it on every qualifying rotation. The pacing policy
	// (minInterval/minGarbage) gates what a poke actually does;
	// Compact bypasses it.
	folds       *folder
	minInterval time.Duration
	minGarbage  float64
	lastFold    atomic.Int64 // unix nanos of the last successful fold
	forcedFolds atomic.Uint64
	skipByTime  atomic.Uint64
	skipByRatio atomic.Uint64

	// retry is the timer re-poking the folder when a fold was deferred
	// by minInterval; retryArmed coalesces to one pending retry.
	retryMu    sync.Mutex
	retry      *time.Timer
	retryArmed bool

	// Background scrubber (Options.Integrity.ScrubInterval); started by
	// Load, stopped by Close.
	scrubInterval time.Duration
	scrubBudget   int64
	stopScrub     func()
}

// Options configure a Store.
type Options struct {
	// Sync makes the journal fsync once per combined flush, so an
	// acknowledged commit survives power loss, not just a killed
	// process; concurrent commits share the fsync.
	Sync bool
	// Shards is the repository lock-stripe count (default
	// DefaultShards, minimum 1). More shards, less contention.
	Shards int
	// SegmentMaxBytes rotates the journal's active segment once it
	// grows past this size; sealed segments are folded into a snapshot
	// by a background folder so restart replay stays bounded. 0
	// disables automatic rotation (Compact still seals and folds on
	// demand).
	SegmentMaxBytes int64
	// SnapshotEvery folds once this many sealed segments accumulate
	// (0 = every rotation).
	SnapshotEvery int
	// LogLiveWindow is how many of a log's newest entries stay in RAM
	// and in the snapshot; older entries are spilled by folds into
	// immutable archive files carried by reference. 0 means
	// DefaultLogLiveWindow; Open rejects a negative window.
	LogLiveWindow int
	// FoldMinInterval is the minimum wall-clock spacing between
	// background folds: a seal poking the folder sooner defers the
	// fold (a retry timer re-pokes when the interval elapses). 0 folds
	// on every qualifying poke. Compact ignores it.
	FoldMinInterval time.Duration
	// FoldMinGarbage is the minimum garbage ratio — sealed backlog
	// bytes over (sealed backlog + newest snapshot) bytes — a
	// background fold requires; below it the fold is skipped until
	// more garbage accumulates. 0 disables the check. Compact ignores
	// it.
	FoldMinGarbage float64
	// ReadCacheEntries is the per-shard bound of the LRU read cache a
	// repository gets when the owner calls Repo.EnableReadCache with
	// this value (the store itself only carries the knob; each
	// repository opts in with its own prepare function). 0 means
	// DefaultReadCacheEntries; negative disables caching.
	ReadCacheEntries int
	// Clock stamps journal entries; nil means the wall clock.
	Clock vclock.Clock
	// OnAppendResult, when set, observes the outcome of every commit
	// (nil error = durably acknowledged). The resilience layer feeds
	// it into the health state machine so a failing journal flips the
	// system read-only instead of silently dropping durability. Called
	// on the commit path — must be O(1) and must not call back into
	// the store.
	OnAppendResult func(error)
	// Integrity tunes corruption detection on the journal: record
	// framing, quarantine mode, the background scrubber (see
	// IntegrityOptions).
	Integrity IntegrityOptions
}

// DefaultShards is the repository lock-stripe count when Options.Shards
// is zero.
const DefaultShards = 16

// DefaultReadCacheEntries is the per-shard read-cache bound when
// Options.ReadCacheEntries is zero. Sizing: the hot-key sketch tracks
// hotKeysPerShard (8) dominant keys per shard, and a cache is only
// useful when it comfortably covers the observed hot set plus churn —
// 64 entries per shard is 8x the sketch capacity, and with the default
// 16 shards bounds a model cache at 1024 decoded values (a few MB for
// mid-size models).
const DefaultReadCacheEntries = 64

// DefaultLogLiveWindow is the per-log live window when
// Options.LogLiveWindow is zero: enough recent history for every hot
// read path (timeline backfill, recent-events pages) while keeping
// fold cost flat.
const DefaultLogLiveWindow = 4096

// journalName is the active journal segment inside a journal directory
// (also the whole journal in pre-segmentation deployments, which makes
// old data directories open unchanged).
const journalName = "gelee.journal"

// FoldPolicyStats reports the pacing policy's configuration and what
// it has done: folds forced by Compact, and background folds skipped
// by the interval or garbage-ratio gates.
type FoldPolicyStats struct {
	MinIntervalMS   int64   `json:"min_interval_ms,omitempty"`
	MinGarbage      float64 `json:"min_garbage,omitempty"`
	Forced          uint64  `json:"forced,omitempty"`
	SkippedInterval uint64  `json:"skipped_interval,omitempty"`
	SkippedGarbage  uint64  `json:"skipped_garbage,omitempty"`
}

// Stats is the store-wide health snapshot served by the admin API:
// engine counters plus per-repository live sizes, per-log hot/cold
// splits, per-repository read stats and the fold policy counters.
type Stats struct {
	Engine EngineStats    `json:"engine"`
	Shards int            `json:"shards"`
	Repos  map[string]int `json:"repos"`
	// Instances carries the instance collection's engine counters when
	// the deployment persists lifecycle instances (it runs on its own
	// engine, see Instances); nil otherwise. Filled by the facade.
	Instances  *EngineStats             `json:"instances,omitempty"`
	FoldPolicy FoldPolicyStats          `json:"fold_policy"`
	Logs       map[string]LogStats      `json:"logs,omitempty"`
	Reads      map[string]RepoReadStats `json:"reads,omitempty"`
}

// New builds a store on an explicit engine — the pluggable entry point.
// Load must be called (once) before any mutation.
func New(engine Engine, opts Options) *Store {
	clock := opts.Clock
	if clock == nil {
		clock = vclock.System
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	window := opts.LogLiveWindow
	if window == 0 {
		window = DefaultLogLiveWindow
	}
	return &Store{
		engine:         engine,
		clock:          clock,
		shards:         shards,
		window:         window,
		parts:          make(map[string]journaled),
		folds:          newFolder(),
		minInterval:    opts.FoldMinInterval,
		minGarbage:     opts.FoldMinGarbage,
		onAppendResult: opts.OnAppendResult,
	}
}

// Open creates a persistent store rooted at dir (created if missing),
// backed by the journal engine. With SegmentMaxBytes set
// the journal rotates and a background folder compacts sealed segments
// into snapshots without excluding writers.
func Open(dir string, opts Options) (*Store, error) {
	if opts.LogLiveWindow < 0 {
		return nil, fmt.Errorf("store: negative log live window %d", opts.LogLiveWindow)
	}
	s := New(nil, opts)
	engine, err := NewJournalEngine(JournalConfig{
		Dir:             dir,
		Sync:            opts.Sync,
		SegmentMaxBytes: opts.SegmentMaxBytes,
		SnapshotEvery:   opts.SnapshotEvery,
		OnSeal:          s.scheduleFold,
		Integrity:       opts.Integrity,
	})
	if err != nil {
		return nil, err
	}
	s.engine = engine
	s.scrubInterval = opts.Integrity.ScrubInterval
	s.scrubBudget = opts.Integrity.ScrubBytesPerTick
	return s, nil
}

// NewMemory returns a store with no persistence, ready for use without
// Load (calling Load anyway is harmless and replays nothing).
func NewMemory() *Store {
	s := New(NewMemoryEngine(), Options{})
	s.loaded = true
	return s
}

// WithClock overrides the store's clock (used by tests and the virtual-
// time benchmarks). It returns the store for chaining.
func (s *Store) WithClock(c vclock.Clock) *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock = c
	return s
}

func (s *Store) register(name string, part journaled) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parts[name]; ok {
		return fmt.Errorf("store: repository %q already registered", name)
	}
	s.parts[name] = part
	return nil
}

// numShards reports the lock-stripe count repositories should use.
func (s *Store) numShards() int { return s.shards }

// logWindow reports the configured log live-window.
func (s *Store) logWindow() int { return s.window }

// readArchive streams one archived ref through fn — the log's cold
// read path. Archives are immutable on disk, so no store lock is
// needed; reads stay valid across concurrent folds.
func (s *Store) readArchive(ref ArchiveRef, fn func(Entry) error) error {
	return s.engine.ReadArchive(ref, fn)
}

// Load replays the engine into every registered repository and opens
// the engine for appending, fanning the apply work out across one
// worker per CPU (entries of independent keys commute; see
// LoadParallel). It must be called exactly once, after all
// repositories are created and before any mutation. In-memory stores
// created by NewMemory may skip it.
func (s *Store) Load() error {
	return s.LoadParallel(runtime.GOMAXPROCS(0))
}

// LoadParallel is Load with an explicit worker count: the engine
// streams entries in commit order while workers apply them, sharded by
// (part, key) so every repository key's — and every log's — entries
// apply in exactly the sequential order. workers <= 1 degrades to the
// plain sequential replay.
func (s *Store) LoadParallel(workers int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loadCalled {
		return fmt.Errorf("store: Load called twice")
	}
	s.loadCalled = true
	var err error
	if workers <= 1 {
		err = s.engine.Replay(func(e Entry) error {
			part, ok := s.parts[e.Repo]
			if !ok {
				// Forward compatibility: entries for repositories this
				// deployment doesn't know are skipped, not fatal.
				return nil
			}
			return part.applyEntry(e)
		})
	} else {
		fo := newFanOut(workers, func(e Entry) error {
			return s.parts[e.Repo].applyEntry(e)
		})
		err = s.engine.Replay(func(e Entry) error {
			part, ok := s.parts[e.Repo]
			if !ok {
				return nil
			}
			return fo.dispatch(e.Repo+"\x00"+part.replayKey(e), e)
		})
		if finishErr := fo.finish(); err == nil {
			err = finishErr
		}
	}
	if err != nil {
		return err
	}
	s.loaded = true
	// Fold errors are counted on the engine stats (FoldErrors); the
	// journal keeps growing until a later fold succeeds, so no data is
	// ever at risk.
	s.folds.start(func() { s.fold(false) })
	if s.scrubInterval > 0 {
		s.stopScrub = scrubLoop(s.scrubInterval, s.scrubBudget, s.engine.Scrub)
	}
	return nil
}

// Scrub runs one bounded background-verification tick on the engine —
// the on-demand hook behind the admin API and tests; the interval loop
// (Options.Integrity.ScrubInterval) calls the same engine method.
func (s *Store) Scrub(maxBytes int64) ScrubResult {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ScrubResult{}
	}
	return s.engine.Scrub(maxBytes)
}

// scheduleFold pokes the background folder — the engine's OnSeal hook.
func (s *Store) scheduleFold() { s.folds.poke() }

// commit journals an entry; the engine applies the in-memory mutation
// via the onCommit hook, in journal order, before acknowledging. The
// shared read-lock keeps commits concurrent with each other (that
// concurrency is what lets the engine combine flushes) while excluding
// Load and Close.
func (s *Store) commit(e Entry, apply func(seq uint64)) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded {
		return fmt.Errorf("store: mutation before Load")
	}
	if s.closed {
		return ErrClosed
	}
	e.Time = s.clock.Now()
	_, err := s.engine.Append(e, apply)
	if s.onAppendResult != nil {
		s.onAppendResult(err)
	}
	return err
}

// QueueDepth is the number of commits in flight on the engine — the
// saturation signal admission control samples per mutating request.
func (s *Store) QueueDepth() int { return s.engine.Depth() }

// Compact compacts the journal without stopping writers: the active
// segment is sealed (O(1) under the appender lock), then every sealed
// segment is folded into a snapshot of the live state and deleted —
// bypassing the pacing policy, since an operator asking for compaction
// means now. Unlike the pre-segmentation rewrite, commits proceed for
// the whole duration — the store lock is held shared — and no
// acknowledged write can be lost: the fold boundary is fixed before
// the live image is captured, so the snapshot is a superset of
// everything it replaces, and replay skips the overlap.
func (s *Store) Compact() error {
	s.mu.RLock()
	if !s.loaded || s.closed {
		s.mu.RUnlock()
		return nil
	}
	err := s.engine.Seal()
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	s.forcedFolds.Add(1)
	return s.fold(true)
}

// fold runs one snapshot fold over everything sealed so far. Unless
// forced it first consults the pacing policy: nothing sealed means
// nothing to do; a fold too soon after the last is deferred (with a
// retry armed for when the interval elapses); a sealed backlog below
// the garbage-ratio floor waits for more garbage. Compact forces.
func (s *Store) fold(force bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.loaded || s.closed {
		return nil
	}
	if !force {
		est := s.engine.Stats()
		if est.SealedSegments == 0 {
			return nil
		}
		if s.minInterval > 0 {
			since := s.clock.Now().Sub(time.Unix(0, s.lastFold.Load()))
			if since < s.minInterval {
				s.skipByTime.Add(1)
				s.armRetry(s.minInterval - since)
				return nil
			}
		}
		if s.minGarbage > 0 {
			if total := est.SealedBytes + est.SnapshotBytes; total > 0 &&
				float64(est.SealedBytes)/float64(total) < s.minGarbage {
				s.skipByRatio.Add(1)
				return nil
			}
		}
	}
	err := s.engine.Fold(s.foldImage)
	if err == nil {
		s.lastFold.Store(s.clock.Now().UnixNano())
	}
	return err
}

// armRetry schedules one folder re-poke after d — how a fold deferred
// by FoldMinInterval eventually runs even if no further seal occurs.
// Coalesced: at most one retry pending at a time.
func (s *Store) armRetry(d time.Duration) {
	s.retryMu.Lock()
	defer s.retryMu.Unlock()
	if s.retryArmed {
		return
	}
	s.retryArmed = true
	s.retry = time.AfterFunc(d, func() {
		s.retryMu.Lock()
		s.retryArmed = false
		s.retryMu.Unlock()
		s.folds.poke()
	})
}

// foldImage captures the live-entry image of every registered part —
// each under its own locks only, so writers are never excluded — with
// per-part fold boundaries stamped into Entry.Seq (see journaled).
// Parts' commit hooks (retiring state they archived through ar) are
// merged into one, which the engine runs after the snapshot installs.
func (s *Store) foldImage(ar Archiver) FoldImage {
	names := make([]string, 0, len(s.parts))
	for name := range s.parts {
		names = append(names, name)
	}
	sort.Strings(names)

	now := s.clock.Now()
	var entries []Entry
	var commits []func()
	for _, name := range names {
		img, boundary, commit := s.parts[name].foldEntries(ar)
		for _, e := range img {
			e.Seq = boundary
			e.Time = now
			entries = append(entries, e)
		}
		if commit != nil {
			commits = append(commits, commit)
		}
	}
	var commit func()
	if len(commits) > 0 {
		commit = func() {
			for _, c := range commits {
				c()
			}
		}
	}
	return FoldImage{Entries: entries, Commit: commit}
}

// Stats reports engine health plus per-repository sizes, per-log
// hot/cold splits, read stats and fold-policy counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Engine: s.engine.Stats(),
		Shards: s.shards,
		Repos:  make(map[string]int, len(s.parts)),
		FoldPolicy: FoldPolicyStats{
			MinIntervalMS:   s.minInterval.Milliseconds(),
			MinGarbage:      s.minGarbage,
			Forced:          s.forcedFolds.Load(),
			SkippedInterval: s.skipByTime.Load(),
			SkippedGarbage:  s.skipByRatio.Load(),
		},
	}
	for name, part := range s.parts {
		st.Repos[name] = part.size()
		if lp, ok := part.(interface{ logStats() LogStats }); ok {
			if st.Logs == nil {
				st.Logs = make(map[string]LogStats)
			}
			st.Logs[name] = lp.logStats()
		}
		if rp, ok := part.(interface{ readStats() RepoReadStats }); ok {
			if st.Reads == nil {
				st.Reads = make(map[string]RepoReadStats)
			}
			st.Reads[name] = rp.readStats()
		}
	}
	return st
}

// PurgeReadCaches empties every repository's read cache. Called when
// records change out from under the decoded in-memory state without
// passing through Put/Delete/replay — quarantine latching a corrupt
// file aside, offline repair of the data directory — so no cached
// decode outlives the record it came from. Takes the store lock: do
// not call from integrity callbacks that can fire mid-Load (the store
// mutex is held there) — purge the repos directly instead, each
// Repo.PurgeReadCache touches only its shard cache locks.
func (s *Store) PurgeReadCaches() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, part := range s.parts {
		if rp, ok := part.(interface{ PurgeReadCache() }); ok {
			rp.PurgeReadCache()
		}
	}
}

// Close drains and closes the engine. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.retryMu.Lock()
	if s.retry != nil {
		s.retry.Stop()
	}
	s.retryMu.Unlock()
	if s.stopScrub != nil {
		s.stopScrub()
	}
	s.folds.stop()
	return s.engine.Close()
}

// Now exposes the store clock, so higher layers stamp consistently.
func (s *Store) Now() time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clock.Now()
}
