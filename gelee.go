// Package gelee is the public facade of the Gelee universal resource
// lifecycle management system — a from-scratch Go reproduction of Báez,
// Casati and Marchese, "Universal Resource Lifecycle Management"
// (WISS/ICDE 2009).
//
// A System wires the full Fig. 2 architecture: the data tier (model,
// template, action-definition and user repositories plus the execution
// log of definition changes, journal-backed, and the instance journal
// holding every instance's event history), the lifecycle manager
// (design-time and run-time modules), the resource manager with its
// plug-ins, and the UI tier (monitoring cockpit queries and execution
// widgets). Everything is usable embedded (in-process, see
// examples/quickstart) or hosted over HTTP (cmd/geleed).
//
// The quickest start:
//
//	sys, _ := gelee.New(gelee.Options{EmbeddedPlugins: true})
//	defer sys.Close()
//	sys.DefineModel("", myModel)
//	snap, _ := sys.Instantiate(myModel.URI, ref, "me", nil)
//	sys.Advance(snap.ID, "elaboration", "me", gelee.AdvanceOptions{})
package gelee

import (
	"errors"
	"fmt"
	"path/filepath"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/liquidpub/gelee/internal/access"
	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/invoke"
	"github.com/liquidpub/gelee/internal/monitor"
	"github.com/liquidpub/gelee/internal/plugin/composite"
	"github.com/liquidpub/gelee/internal/plugin/gdocsim"
	"github.com/liquidpub/gelee/internal/plugin/notifysim"
	"github.com/liquidpub/gelee/internal/plugin/svnsim"
	"github.com/liquidpub/gelee/internal/plugin/websim"
	"github.com/liquidpub/gelee/internal/plugin/wikisim"
	"github.com/liquidpub/gelee/internal/resilience"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
	"github.com/liquidpub/gelee/internal/widget"
)

// Re-exported types so that library users interact with one import path.
type (
	// Model is a lifecycle definition (phases + suggested transitions).
	Model = core.Model
	// Phase is one stage of a lifecycle.
	Phase = core.Phase
	// Transition is a suggested evolution between phases.
	Transition = core.Transition
	// Param is an action parameter (binding time, required flag).
	Param = core.Param
	// Ref identifies a managed resource: URI + type (+ credentials).
	Ref = resource.Ref
	// Snapshot is the observable state of a lifecycle instance.
	Snapshot = runtime.Snapshot
	// Summary is the copy-free list-view projection of an instance:
	// token position, maintained counters, due-date inputs.
	Summary = runtime.Summary
	// MoveResult is the copy-free result of a mutating verb: the
	// post-move summary plus only the events the call appended.
	MoveResult = runtime.MoveResult
	// EventPage is a paged window of an instance's event history, as
	// Events returns it and the timeline routes send it.
	EventPage = runtime.EventPage
	// SummaryPage is one cursor window of the population summary view.
	SummaryPage = runtime.SummaryPage
	// Filter is the pushed-down predicate of a population query
	// (resource/model URI → secondary indexes, state/lateness →
	// summary counters); the zero value matches every instance.
	Filter = runtime.Filter
	// AdvanceOptions carries annotation and call-time bindings of a move.
	AdvanceOptions = runtime.AdvanceOptions
	// ActionType is a reusable action signature (Table II).
	ActionType = actionlib.ActionType
	// Implementation binds an action type to an endpoint for a type.
	Implementation = actionlib.Implementation
	// User is an account; Grant assigns a role on a scope.
	User = access.User
	// Grant assigns a role on a scope to a user.
	Grant = access.Grant
	// StatusUpdate is an action callback message.
	StatusUpdate = actionlib.StatusUpdate
	// IntegrityOptions tune journal corruption detection: checksummed
	// record framing, quarantine-and-serve opens, and the background
	// scrubber (see store.IntegrityOptions).
	IntegrityOptions = store.IntegrityOptions
	// CorruptFile describes one corruption detection, delivered to
	// IntegrityOptions.OnCorrupt.
	CorruptFile = store.CorruptFile
)

// Role constants re-exported from the access package (§IV.D).
const (
	RoleLifecycleManager = access.RoleLifecycleManager
	RoleInstanceOwner    = access.RoleInstanceOwner
	RoleTokenOwner       = access.RoleTokenOwner
	RoleResourceOwner    = access.RoleResourceOwner
)

// NewModel starts a fluent model builder (see internal/core.Builder).
var NewModel = core.NewModel

// Begin is the pseudo-phase initial transitions start from.
const Begin = core.Begin

// Options configure a System.
type Options struct {
	// DataDir roots the persistent data tier: set, the definitions
	// journal lives under it (and, with PersistInstances, the instance
	// journal under DataDir/instances); empty, both journals live on
	// an in-memory file system, and nothing survives the process. The
	// engine is the same either way — the same journals, rotation,
	// folds and archives — and so is the locking: the repositories
	// stripe their locks store.DefaultShards ways and the runtime's
	// instance table runtime.DefaultShards ways, so advances on
	// instances in different stripes share no lock.
	DataDir string
	// SyncJournal makes both journals fsync once per combined flush:
	// concurrent writers share the fsync.
	SyncJournal bool
	// SegmentMaxBytes seals a journal's active segment once it grows
	// past this size and rotates to a fresh one — an O(1) rename under
	// the appender lock, so writers never wait on compaction. Every
	// rotation asks a background folder to fold the sealed segments
	// into a snapshot (paced by FoldMinInterval and FoldMinGarbage on
	// the definitions journal), which is what keeps restart replay
	// O(snapshot + tail) instead of O(all history). Applies to both the
	// definitions journal and the instance journal. 0 disables
	// automatic rotation of a journal on disk (Compact still seals and
	// folds on demand); a journal in memory then rotates at
	// DefaultSegmentMaxBytes, so its RAM stays bounded.
	SegmentMaxBytes int64
	// FoldMinInterval spaces background snapshot folds at least this
	// far apart in wall-clock time (0 = fold on every seal).
	// Compact ignores it.
	FoldMinInterval time.Duration
	// FoldMinGarbage is the minimum garbage ratio (sealed backlog bytes
	// over sealed + snapshot bytes) a background fold requires
	// (0 = no floor). Compact ignores it.
	FoldMinGarbage float64
	// MaxEventsInMemory caps each instance's in-memory event ring
	// (0 = unbounded). Events truncated off the ring wait in a spill
	// until the next instance-journal fold writes them into a history
	// archive — on disk, or in memory where the instance journal lives
	// there; timeline pages stitch archives, spill and ring, so the
	// full record stays addressable. Cockpit aggregates are unaffected
	// (they come from incremental counters).
	MaxEventsInMemory int
	// InvocationRetention ages invocation→instance callback-routing
	// entries out of the index once their execution is terminal plus
	// this grace window (0 = keep forever).
	InvocationRetention time.Duration
	// PersistInstances puts the instance journal on disk, under
	// DataDir/instances: every instance mutation is written through to
	// it before it is acknowledged, and on open it is replayed — token
	// positions, event histories, executions, pending changes,
	// secondary indexes and incremental counters all come back.
	// Without it (or without a DataDir) the instance journal lives in
	// memory and instances last as long as the process, the paper's
	// original data-tier split.
	PersistInstances bool
	// Clock overrides the wall clock (tests, benchmarks).
	Clock vclock.Clock
	// Auth enables role enforcement: every mutation requires an actor
	// with the §IV.D role. Disabled, any actor may do anything (embedded
	// library use).
	Auth bool
	// EmbeddedPlugins wires the full simulated-plug-in suite (Google
	// Docs, MediaWiki, SVN, project site, notifications) in-process with
	// local action endpoints.
	EmbeddedPlugins bool
	// SyncActions dispatches phase actions inline (deterministic tests).
	SyncActions bool
	// Resilience tunes overload and failure behavior: admission
	// control, the degraded/read-only health state machine, outcall
	// circuit breakers and threshold alerting. The zero value enables
	// health tracking and circuit breakers with defaults; shedding,
	// probing and alerting stay off until configured.
	Resilience ResilienceOptions
	// Integrity tunes end-to-end journal integrity on both journals
	// (the definitions store and the instance collection): checksummed
	// record framing is on by default; Quarantine makes a corrupt open
	// serve the surviving history read-only instead of failing;
	// ScrubInterval starts the background re-verification of sealed
	// segments, snapshots and archives. A quarantined file latches the
	// health state machine read-only until restart-after-repair
	// (geleectl fsck); the OnCorrupt hook still fires for callers that
	// want their own telemetry.
	Integrity IntegrityOptions
}

// DefaultInvokeMaxInFlight caps concurrent action dispatches per
// endpoint: one wedged action service fills its own lane only.
const DefaultInvokeMaxInFlight = 64

// DefaultSegmentMaxBytes is the segment bound of a journal in memory
// when Options.SegmentMaxBytes is zero, and geleed's default.
const DefaultSegmentMaxBytes = 64 << 20

// ResilienceOptions tunes the resilience layer. See internal/resilience
// for the health-state-machine and breaker semantics.
type ResilienceOptions struct {
	// MaxQueueDepth is the admission watermark: when the data tier's
	// commit backlog (appenders in flight on either journal, or
	// DepthSignal — whichever is highest) reaches
	// it, mutating HTTP requests shed with 429 + Retry-After until the
	// backlog falls back to half the watermark. Reads continue.
	// 0 disables shedding.
	MaxQueueDepth int
	// ShedRetryAfter is the Retry-After hint shed responses carry
	// (default 1s).
	ShedRetryAfter time.Duration
	// DegradeAfter consecutive journal-append failures mark the system
	// degraded (default 1); ReadOnlyAfter trip read-only mode, where
	// mutations are rejected with 503 (default 3); RecoverAfter
	// consecutive successes step back down one level (default 3).
	DegradeAfter  int
	ReadOnlyAfter int
	RecoverAfter  int
	// ProbeInterval, when positive, runs a durability prober: while
	// the system is degraded or read-only it writes a no-op probe
	// record through the instance-journal path on this interval, so
	// read-only mode — which admits no organic writes — can prove the
	// disk again and recover. 0 disables probing.
	ProbeInterval time.Duration
	// InvokeTimeout bounds one action-dispatch HTTP attempt
	// (0 = invoke.DefaultTimeout, 30s).
	InvokeTimeout time.Duration
	// InvokeAttempts is the total attempts per remote dispatch, with
	// jittered exponential backoff between them (0 or 1 = no retry).
	// Safe because invocations carry a unique id end to end.
	InvokeAttempts int
	// BreakerFailures consecutive dispatch failures open an endpoint's
	// circuit — further sends fail fast until BreakerCooldown (default
	// 15s) elapses and a half-open trial succeeds. 0 means the default
	// of 5; New rejects a negative value. Breakers are always on, each
	// endpoint admits at most DefaultInvokeMaxInFlight concurrent
	// dispatches, and every REST and SOAP outcall rides the invoke
	// package's one shared connection pool.
	BreakerFailures int
	BreakerCooldown time.Duration
	// AlertWebhook, when set, receives every threshold alert as a JSON
	// POST. AlertInterval is the evaluation cadence; the watcher loop
	// runs only when AlertInterval is positive or AlertWebhook is set
	// (cadence then defaults to 5s).
	AlertWebhook  string
	AlertInterval time.Duration
	// DepthSignal, when set, is an extra saturation signal combined
	// (max) with the engine queue depth — a seam for external backlog
	// measures and deterministic shedding tests.
	DepthSignal func() int
	// WrapJournal, when set, wraps the runtime's instance-journal sink
	// before health observation is attached — the fault-injection seam
	// the failure-transition tests use.
	WrapJournal func(runtime.Journal) runtime.Journal
}

// Sims exposes the embedded simulated managing applications so that
// examples and tests can create documents, inspect inboxes, etc.
// Composites implements the paper's §VI future-work extension: complex
// resources whose components carry their own lifecycles; use
// CompositeRollup to aggregate component progress.
type Sims struct {
	GDocs      *gdocsim.Service
	Wiki       *wikisim.Service
	SVN        *svnsim.Service
	Web        *websim.Service
	Notify     *notifysim.Service
	Composites *composite.Service
}

// definitions are the repositories and the log the definitions journal
// replays into: New loads the journal through them, Fsck checks it
// through them.
type definitions struct {
	models    *store.Repo[*core.Model]
	templates *store.Repo[*core.Model]
	actTypes  *store.Repo[actionlib.ActionType]
	actImpls  *store.Repo[actionlib.Implementation]
	users     *store.Repo[access.User]
	grants    *store.Repo[access.Grant]
	execLog   *store.Log
}

// registerDefinitions registers the definitions' parts on st.
func registerDefinitions(st *store.Store) definitions {
	return definitions{
		models:    store.MustRepo[*core.Model](st, "models"),
		templates: store.MustRepo[*core.Model](st, "templates"),
		actTypes:  store.MustRepo[actionlib.ActionType](st, "action-types"),
		actImpls:  store.MustRepo[actionlib.Implementation](st, "action-impls"),
		users:     store.MustRepo[access.User](st, "users"),
		grants:    store.MustRepo[access.Grant](st, "grants"),
		execLog:   store.MustLog(st, "execlog"),
	}
}

// rebuild loads the replayed action library and accounts into the
// in-memory services that serve them.
func (d definitions) rebuild(reg *actionlib.Registry, acl *access.Control) error {
	for _, at := range d.actTypes.List() {
		if err := reg.ReplaceType(at); err != nil {
			return err
		}
	}
	for _, im := range d.actImpls.List() {
		if err := reg.RegisterImplementation(im); err != nil && !errors.Is(err, actionlib.ErrDuplicate) {
			return err
		}
	}
	for _, u := range d.users.List() {
		if err := acl.AddUser(u); err != nil {
			return err
		}
	}
	for _, g := range d.grants.List() {
		if err := acl.Grant(g); err != nil {
			return err
		}
	}
	return nil
}

// System is a complete Gelee deployment.
type System struct {
	opts  Options
	clock vclock.Clock
	store *store.Store
	definitions
	instances *store.Instances

	Registry  *actionlib.Registry
	Resources *resource.Manager
	ACL       *access.Control
	// Runtime is embedded: the run-time verbs (Advance, Events,
	// QuerySummaries, AcceptChange, RuntimeStats, ...) are the runtime's
	// own methods, promoted. Instantiate is a System method on purpose:
	// it adds the model lookup, resource check and owner grant.
	*runtime.Runtime
	Local *invoke.LocalInvoker
	Sims  *Sims

	composites *composite.Adapter
	mon        *monitor.Monitor
	wdgt       *widget.Renderer

	// Resilience layer: the health state machine fed by journal-append
	// outcomes, the admission gate in front of mutations, the shared
	// outcall breakers, the threshold watcher, and the (optional)
	// durability prober that writes no-op records through journal —
	// the final, possibly fault-wrapped, observed sink.
	health        *resilience.Health
	gate          *resilience.Gate
	breakers      *resilience.BreakerSet
	watcher       *resilience.Watcher
	journal       runtime.Journal
	probeStop     chan struct{}
	probeDone     chan struct{}
	probeAttempts atomic.Int64
	probeFailures atomic.Int64
	closeOnce     sync.Once
}

// CompositeRollup aggregates the component lifecycles of an embedded
// composite resource (§VI extension): how many components exist, how
// many carry lifecycles, their phases, and whether all completed.
func (s *System) CompositeRollup(compositeID string) (composite.Rollup, error) {
	if s.composites == nil {
		return composite.Rollup{}, errors.New("gelee: composites require EmbeddedPlugins")
	}
	return s.composites.Rollup(compositeID)
}

// New builds and loads a System. When it fails it closes whatever it
// had opened, so the data directory is released.
func New(opts Options) (sys *System, err error) {
	res := opts.Resilience
	if res.BreakerFailures < 0 {
		return nil, fmt.Errorf("gelee: negative Resilience.BreakerFailures %d", res.BreakerFailures)
	}
	clock := opts.Clock
	if clock == nil {
		clock = vclock.System
	}

	// The health state machine watches every durable append — both
	// stores report their outcomes into it, so persistent disk trouble
	// flips the system degraded and then read-only.
	health := resilience.NewHealth(resilience.HealthConfig{
		DegradeAfter:  res.DegradeAfter,
		ReadOnlyAfter: res.ReadOnlyAfter,
		RecoverAfter:  res.RecoverAfter,
	})

	// Journal integrity: the facade owns the OnCorrupt hook so that a
	// quarantined file — damaged history moved aside at open — latches
	// the node read-only until an operator repairs and restarts
	// (probe-driven recovery must not un-latch it; the disk working
	// again does not restore the quarantined records). Scrub detections
	// don't latch: the file may never be read, and the journal-corruption
	// alert plus the health report carry the signal to the operator.
	integ := opts.Integrity
	userOnCorrupt := integ.OnCorrupt
	integ.OnCorrupt = func(cf store.CorruptFile) {
		if cf.Quarantined {
			health.ForceReadOnly(fmt.Sprintf("journal corruption quarantined: %s", cf.Path))
		}
		if userOnCorrupt != nil {
			userOnCorrupt(cf)
		}
	}

	// Both journals run the same engine. Without a DataDir they live
	// on one in-memory file system, and without PersistInstances the
	// instance journal lives on its own; an in-memory journal rotates
	// at DefaultSegmentMaxBytes unless told otherwise, so it folds and
	// its RAM stays bounded. The instance collection has its own
	// journal directory (DataDir/instances) so instance writes never
	// order an instance lock against the definitions store's commit
	// lock; see store.Instances.
	memSeg := opts.SegmentMaxBytes
	if memSeg == 0 {
		memSeg = DefaultSegmentMaxBytes
	}
	dir, defsFS, defsSeg := opts.DataDir, store.FS(nil), opts.SegmentMaxBytes
	if dir == "" {
		dir, defsFS, defsSeg = "/", store.NewMemFS(), memSeg
	}
	instFS, instSeg := defsFS, defsSeg
	if opts.DataDir != "" && !opts.PersistInstances {
		instFS, instSeg = store.NewMemFS(), memSeg
	}
	st := store.Open(dir, store.Options{
		FS:              defsFS,
		Sync:            opts.SyncJournal,
		SegmentMaxBytes: defsSeg,
		FoldMinInterval: opts.FoldMinInterval,
		FoldMinGarbage:  opts.FoldMinGarbage,
		Clock:           clock,
		OnAppendResult:  health.Observe,
		Integrity:       integ,
	})
	s := &System{
		opts:   opts,
		clock:  clock,
		health: health,
		store:  st,
		instances: store.OpenInstances(filepath.Join(dir, "instances"), store.InstancesOptions{
			FS:              instFS,
			Sync:            opts.SyncJournal,
			SegmentMaxBytes: instSeg,
			Integrity:       integ,
		}),
		Registry:  actionlib.NewRegistry(),
		Resources: resource.NewManager(),
		ACL:       access.NewControl(),
	}
	// A failed open releases what it opened — the journals' files and
	// the folder, scrubber, watcher and probe goroutines — so the next
	// open of the same directory starts clean. The open's error is the
	// one reported; nothing was acknowledged for Close to lose.
	defer func() {
		if err != nil {
			_ = s.Close()
		}
	}()
	s.definitions = registerDefinitions(st)
	if err := st.Load(); err != nil {
		return nil, err
	}

	if err := s.definitions.rebuild(s.Registry, s.ACL); err != nil {
		return nil, err
	}

	// Invocation transports: local (in-process plug-ins) plus REST and
	// SOAP for remote ones. The local invoker reports straight into the
	// runtime; the closure breaks the construction cycle between them.
	s.Local = invoke.NewLocalInvoker(reporterFunc(func(up actionlib.StatusUpdate) error {
		return s.Runtime.Report(up)
	}))
	// Remote dispatch goes through per-endpoint circuit breakers with
	// an in-flight cap, over the invoke package's shared connection
	// pool, and optionally retries idempotent sends with jittered
	// backoff.
	s.breakers = resilience.NewBreakerSet(resilience.BreakerConfig{
		Failures:    res.BreakerFailures,
		Cooldown:    res.BreakerCooldown,
		MaxInFlight: DefaultInvokeMaxInFlight,
	})
	dispatcher := &invoke.Dispatcher{
		REST:     &invoke.RESTInvoker{Timeout: res.InvokeTimeout},
		SOAP:     &invoke.SOAPInvoker{Timeout: res.InvokeTimeout},
		Local:    s.Local,
		Breakers: s.breakers,
		Attempts: res.InvokeAttempts,
	}
	var policy runtime.Policy
	if opts.Auth {
		policy = aclPolicy{s.ACL}
	}
	var sink runtime.Journal = instanceSink{s.instances}
	if res.WrapJournal != nil {
		sink = res.WrapJournal(sink)
	}
	// Observe outcomes at the top of the sink chain so an injected fault
	// wrapper's failures drive the health machine exactly like real disk
	// failures would.
	s.journal = observedJournal{inner: sink, health: health}
	rt, err := runtime.New(runtime.Config{
		Registry:            s.Registry,
		Invoker:             dispatcher,
		Clock:               clock,
		Policy:              policy,
		SyncActions:         opts.SyncActions,
		MaxEventsInMemory:   opts.MaxEventsInMemory,
		InvocationRetention: opts.InvocationRetention,
		Journal:             s.journal,
		// Folds archive ring-truncated events next to the instance
		// journal.
		History: s.instances,
	})
	if err != nil {
		return nil, err
	}
	s.Runtime = rt

	// Replay the instance journal into the fresh runtime — token
	// positions, histories, executions, pending changes, indexes and
	// counters all rebuild — then open it for write-through appends.
	// Replay streams the newest snapshot plus unfolded tail segments,
	// sharded by instance id across GOMAXPROCS appliers (records of
	// different instances are independent). It happens before anything
	// can mutate the runtime and applies records directly, so no action
	// is re-dispatched. Once recovered, the runtime becomes the
	// journal's snapshot source: folding asks it for per-instance
	// RecSnapshot images so sealed segments can be deleted, and hands
	// it the history archive its truncated events move into.
	if err := s.instances.ReplayParallel(stdruntime.GOMAXPROCS(0), rt.ApplyJournal); err != nil {
		return nil, fmt.Errorf("gelee: replay instance journal: %w", err)
	}
	replay := s.instances.ReplayStats()
	rt.NoteReaderTime(replay.Read, replay.Envelope)
	rt.FinishRecovery()
	s.instances.SetSnapshotSource(func(w *store.SnapshotWriter) (func(), error) {
		return rt.EmitSnapshots(w)
	})

	// Admission control: the mutation gate sheds when the commit
	// backlog — the appenders in flight on the definitions journal or
	// on the instance journal, or the external DepthSignal, whichever
	// is highest — crosses the watermark, and rejects outright in
	// read-only mode.
	depth := func() int {
		d := max(st.Depth(), s.instances.Depth())
		if res.DepthSignal != nil {
			if v := res.DepthSignal(); v > d {
				d = v
			}
		}
		return d
	}
	s.gate = &resilience.Gate{
		Health: health,
		Admission: resilience.NewAdmission(resilience.AdmissionConfig{
			Watermark:  res.MaxQueueDepth,
			RetryAfter: res.ShedRetryAfter,
		}, depth),
	}

	// Threshold alerting: edge-triggered rules over the saturation and
	// failure counters. The watcher object always exists (it backs the
	// admin alert feed); its evaluation loop runs only when alerting is
	// configured.
	var rules []resilience.Rule
	if res.MaxQueueDepth > 0 {
		rules = append(rules, resilience.Rule{
			Name:      "commit-queue-depth",
			Severity:  "warning",
			Threshold: float64(res.MaxQueueDepth) * 0.8,
			Value:     func() float64 { return float64(depth()) },
		})
	}
	rules = append(rules, resilience.Rule{
		Name:      "journal-health",
		Severity:  "critical",
		Threshold: float64(resilience.Degraded),
		Value:     func() float64 { return float64(health.State()) },
	})
	// Corruption detections (a quarantine open's Fsck + background
	// scrub) across both journals. CorruptFiles already includes
	// quarantines.
	rules = append(rules, resilience.Rule{
		Name:      "journal-corruption",
		Severity:  "critical",
		Threshold: 1,
		Value: func() float64 {
			st := s.StoreStats()
			return float64(st.Engine.Integrity.CorruptFiles + st.Instances.Integrity.CorruptFiles)
		},
	})
	rules = append(rules, resilience.Rule{
		Name:      "breakers-open",
		Severity:  "warning",
		Threshold: 1,
		Value:     func() float64 { return float64(s.breakers.OpenCount()) },
	})
	adm := s.gate.Admission
	var lastShed int64 // read/written only by the watcher goroutine
	rules = append(rules, resilience.Rule{
		Name:      "shed-rate",
		Severity:  "warning",
		Threshold: 1,
		Value: func() float64 {
			cur := adm.Shed()
			d := cur - lastShed
			lastShed = cur
			return float64(d)
		},
	})
	s.watcher = resilience.NewWatcher(resilience.WatcherConfig{
		Interval: res.AlertInterval,
		Webhook:  res.AlertWebhook,
	}, rules)
	if res.AlertInterval > 0 || res.AlertWebhook != "" {
		s.watcher.Start()
	}

	// The durability prober is what lets read-only mode end: mutations
	// are gated off, so no organic append can ever prove the disk is
	// back. While unhealthy it writes a no-op probe record through the
	// full sink chain (replay discards probes).
	if res.ProbeInterval > 0 {
		s.probeStop = make(chan struct{})
		s.probeDone = make(chan struct{})
		go s.probeLoop(res.ProbeInterval)
	}

	if opts.EmbeddedPlugins {
		if err := s.wireEmbeddedPlugins(); err != nil {
			return nil, err
		}
	}

	s.mon = monitor.New(rt, clock)
	var aclForWidgets *access.Control
	if opts.Auth {
		aclForWidgets = s.ACL
	}
	s.wdgt = widget.New(rt, s.Resources, aclForWidgets, clock)
	return s, nil
}

// reporterFunc adapts a function to invoke.Reporter.
type reporterFunc func(actionlib.StatusUpdate) error

// Report calls f.
func (f reporterFunc) Report(up actionlib.StatusUpdate) error { return f(up) }

// wireEmbeddedPlugins builds the simulated managing applications,
// registers their adapters with the resource manager, their action
// implementations with the registry, and their handlers with the local
// invoker.
func (s *System) wireEmbeddedPlugins() error {
	notify := notifysim.NewService(s.clock)
	sims := &Sims{
		GDocs:      gdocsim.NewService(s.clock),
		Wiki:       wikisim.NewService(s.clock),
		SVN:        svnsim.NewService(s.clock),
		Web:        websim.NewService(s.clock),
		Notify:     notify,
		Composites: composite.NewService(),
	}
	s.Sims = sims

	gdocs := gdocsim.NewAdapter(sims.GDocs, s.Runtime, notify)
	wiki := wikisim.NewAdapter(sims.Wiki, s.Runtime, notify)
	svn := svnsim.NewAdapter(sims.SVN, s.Runtime)
	s.composites = composite.NewAdapter(sims.Composites, s.Resources, s.Runtime)
	if err := s.Resources.Register(s.composites); err != nil {
		return err
	}

	type wiring struct {
		plug resource.Plugin
		reg  func(base string) error
		bind func(base string)
		base string
	}
	wirings := []wiring{
		{gdocs, func(b string) error { return gdocs.RegisterActions(s.Registry, b, actionlib.ProtocolLocal) },
			func(b string) { gdocs.BindLocal(s.Local, b) }, "local://gdoc/actions"},
		{wiki, func(b string) error { return wiki.RegisterActions(s.Registry, b, actionlib.ProtocolLocal) },
			func(b string) { wiki.BindLocal(s.Local, b) }, "local://mediawiki/actions"},
		{svn, func(b string) error { return svn.RegisterActions(s.Registry, b, actionlib.ProtocolLocal) },
			func(b string) { svn.BindLocal(s.Local, b) }, "local://svn/actions"},
	}
	for _, w := range wirings {
		if err := s.Resources.Register(w.plug); err != nil {
			return err
		}
		if err := w.reg(w.base); err != nil && !errors.Is(err, actionlib.ErrDuplicate) {
			return err
		}
		w.bind(w.base)
	}
	return nil
}

// aclPolicy adapts access.Control to the runtime's Policy.
type aclPolicy struct{ c *access.Control }

func (p aclPolicy) CanDrive(actor, inst string) bool { return p.c.CanDrive(actor, inst) }
func (p aclPolicy) CanFollow(actor, inst, target string) bool {
	return p.c.CanFollow(actor, inst, target)
}

// instanceSink adapts the store's instance collection to the runtime's
// Journal seam: marshal the typed record, append it durably under the
// instance's key — or, for a model body, as a shared record under its
// digest. Record is called under the mutated instance's lock, which is
// what gives the journal per-instance mutation order.
type instanceSink struct{ coll *store.Instances }

func (s instanceSink) Record(rec *runtime.JournalRecord) error {
	data, err := rec.Encode()
	if err != nil {
		return fmt.Errorf("gelee: encode instance record: %w", err)
	}
	if rec.Op == runtime.RecModel {
		return s.coll.AppendShared(rec.Instance, data)
	}
	return s.coll.Append(rec.Instance, data)
}

// observedJournal feeds every instance-append outcome into the health
// state machine. It sits above any injected fault wrapper, so injected
// failures drive the machine exactly like real disk failures.
type observedJournal struct {
	inner  runtime.Journal
	health *resilience.Health
}

func (o observedJournal) Record(rec *runtime.JournalRecord) error {
	err := o.inner.Record(rec)
	o.health.Observe(err)
	return err
}

// probeLoop writes a no-op probe record through the journal chain while
// the system is unhealthy. Probe outcomes reach the health machine via
// the observedJournal wrapper; on replay the runtime discards RecProbe.
func (s *System) probeLoop(every time.Duration) {
	defer close(s.probeDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-t.C:
			if s.health.State() == resilience.Healthy {
				continue
			}
			s.probeAttempts.Add(1)
			rec := &runtime.JournalRecord{Op: runtime.RecProbe, Instance: "gelee:probe"}
			if err := s.journal.Record(rec); err != nil {
				s.probeFailures.Add(1)
			}
		}
	}
}

// AdmitMutation is the resilience gate in front of every mutating
// entry point: resilience.ErrReadOnly while journal persistence is
// failing, a resilience.ShedError while the commit backlog is over the
// admission watermark, nil otherwise.
func (s *System) AdmitMutation() error { return s.gate.AdmitMutation() }

// Health returns the current health state (healthy, degraded or
// read-only).
func (s *System) Health() resilience.State { return s.health.State() }

// HealthReport aggregates the resilience layer's state and counters:
// health machine, admission gate, circuit breakers, probes and alerts.
// The payload of GET /api/v1/admin/health.
func (s *System) HealthReport() resilience.Report {
	rep := resilience.Report{
		Health:           s.health.Report(),
		Admission:        s.gate.Admission.Stats(),
		ReadOnlyRejected: s.gate.ReadOnlyRejected(),
		Probes: resilience.ProbeStats{
			Attempts: s.probeAttempts.Load(),
			Failures: s.probeFailures.Load(),
		},
		Alerts:          s.watcher.Stats(),
		Breakers:        s.breakers.Stats(),
		BreakerOpens:    s.breakers.Opens(),
		BreakerRejected: s.breakers.Rejected(),
	}
	rep.State = rep.Health.State
	// Journal integrity, summed across the definitions store and the
	// instance collection.
	st := s.StoreStats()
	ir := &resilience.IntegrityReport{
		Framing:         true,
		ReadOnlyLatched: rep.Health.Latched,
	}
	for _, is := range []store.IntegrityStats{st.Engine.Integrity, st.Instances.Integrity} {
		ir.CorruptFiles += is.CorruptFiles
		ir.QuarantinedFiles += is.QuarantinedFiles
		ir.TornTailsRecovered += is.TornTails
		ir.ScrubPasses += is.ScrubPasses
		if is.LastScrubUnix > ir.LastScrubUnix {
			ir.LastScrubUnix = is.LastScrubUnix
		}
		if is.LastError != "" {
			ir.LastError = is.LastError
		}
	}
	rep.Integrity = ir
	return rep
}

// RecentAlerts returns up to limit of the newest threshold alerts,
// newest last.
func (s *System) RecentAlerts(limit int) []resilience.Alert { return s.watcher.Recent(limit) }

// SubscribeAlerts subscribes to the live alert feed; the returned
// cancel must be called when done.
func (s *System) SubscribeAlerts(buf int) (<-chan resilience.Alert, func()) {
	return s.watcher.Feed().Subscribe(buf)
}

// Close flushes and closes the data tier, the instance journal
// included. Every mutation acknowledged before Close is durable. It
// also releases a System that New built only part of.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		if s.watcher != nil {
			s.watcher.Close()
		}
		if s.probeStop != nil {
			close(s.probeStop)
			<-s.probeDone
		}
	})
	if s.Runtime != nil {
		s.Runtime.WaitDispatch()
	}
	err := s.store.Close()
	if ierr := s.instances.Close(); err == nil {
		err = ierr
	}
	return err
}

// Compact compacts the data tier without stopping writers: each
// journal's active segment is sealed and every sealed segment is
// folded into a snapshot — the definitions journal from the live
// repository state, the instance journal from per-instance RecSnapshot
// images — after which restart replay reads only the snapshots plus
// whatever has been appended since. Mutations proceed for the whole
// duration.
func (s *System) Compact() error {
	if err := s.store.Compact(); err != nil {
		return err
	}
	return s.instances.Compact()
}

// StoreStats reports data-tier health: the definitions journal's state
// and throughput counters (named "memory" when it lives in memory)
// plus per-repository sizes, and the instance journal's own counters.
// The payload of the admin API's GET /api/v1/admin/store.
func (s *System) StoreStats() store.Stats {
	st := s.store.Stats()
	if s.opts.DataDir == "" {
		st.Engine.Engine = "memory"
	}
	es := s.instances.Stats()
	st.Instances = &es
	return st
}

// Monitor returns the cockpit query engine.
func (s *System) Monitor() *monitor.Monitor { return s.mon }

// Widgets returns the widget renderer.
func (s *System) Widgets() *widget.Renderer { return s.wdgt }

// ExecutionLog returns the persistent execution log: the audit trail
// of definition changes (model-defined, template-saved,
// action-registered, model-propagated). Instance events live in the
// instance journal and are read through Events.
func (s *System) ExecutionLog() *store.Log { return s.execLog }

// ErrForbidden is returned when Auth is enabled and the actor lacks the
// required role.
var ErrForbidden = runtime.ErrForbidden

func (s *System) canDesign(actor, modelURI string) bool {
	if !s.opts.Auth {
		return true
	}
	return s.ACL.CanDesign(actor, modelURI)
}

// ---- design time -------------------------------------------------------------

// DefineModel validates and stores a lifecycle model. With Auth on, the
// actor needs the lifecycle-manager role on the model URI — except for
// a brand-new URI, whose definer is granted that role automatically.
func (s *System) DefineModel(actor string, m *core.Model) error {
	if m == nil {
		return errors.New("gelee: nil model")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	_, exists := s.models.Get(m.URI)
	if exists && !s.canDesign(actor, m.URI) {
		return fmt.Errorf("%w: %s may not redefine %s", ErrForbidden, actor, m.URI)
	}
	if err := s.models.Put(m.URI, m.Clone()); err != nil {
		return err
	}
	if !exists && s.opts.Auth && actor != "" {
		if _, ok := s.ACL.User(actor); ok {
			if err := s.AddGrant(access.Grant{User: actor, Role: access.RoleLifecycleManager, Scope: m.URI}); err != nil {
				return err
			}
		}
	}
	_, _ = s.execLog.Append(store.LogEntry{Kind: "model-defined", Actor: actor, Detail: m.URI})
	return nil
}

// Model returns the stored model under uri (a private clone).
func (s *System) Model(uri string) (*core.Model, bool) {
	m, ok := s.models.Get(uri)
	if !ok {
		return nil, false
	}
	return m.Clone(), true
}

// ModelView returns the stored model under uri itself, with no copy.
// Stored models are immutable: a redefinition replaces the value, never
// edits it, and the runtime's model table shares the same pointer with
// every instance of that version (see Instantiate). Callers MUST NOT
// mutate the result; use Model for a private copy. Quarantine moves a
// corrupt file aside only while the store opens, so ModelView, like
// Model and Instantiate, serves the history that survived it.
func (s *System) ModelView(uri string) (*core.Model, bool) {
	return s.models.Get(uri)
}

// Models lists every stored model, ordered by URI. Like ModelView it
// returns the stored, immutable values shared with the runtime's model
// table: callers MUST NOT mutate them.
func (s *System) Models() []*core.Model {
	return s.models.List()
}

// SaveTemplate stores a reusable lifecycle template (Fig. 2 "Lifecycle
// templates" repository). Templates are models that are copied, renamed
// and customized per artifact (§II.B.2).
func (s *System) SaveTemplate(actor string, m *core.Model) error {
	if m == nil {
		return errors.New("gelee: nil template")
	}
	if err := m.Validate(); err != nil {
		return err
	}
	if err := s.templates.Put(m.URI, m.Clone()); err != nil {
		return err
	}
	_, _ = s.execLog.Append(store.LogEntry{Kind: "template-saved", Actor: actor, Detail: m.URI})
	return nil
}

// Template returns the template stored under uri.
func (s *System) Template(uri string) (*core.Model, bool) {
	m, ok := s.templates.Get(uri)
	if !ok {
		return nil, false
	}
	return m.Clone(), true
}

// RegisterAction registers an action type with optional implementations
// and persists both (Fig. 2 "Resource and action definition"
// repository).
func (s *System) RegisterAction(actor string, at actionlib.ActionType, impls ...actionlib.Implementation) error {
	if err := s.Registry.ReplaceType(at); err != nil {
		return err
	}
	if err := s.actTypes.Put(at.URI, at); err != nil {
		return err
	}
	for _, im := range impls {
		if im.TypeURI == "" {
			im.TypeURI = at.URI
		}
		if err := s.Registry.RegisterImplementation(im); err != nil && !errors.Is(err, actionlib.ErrDuplicate) {
			return err
		}
		if err := s.actImpls.Put(im.TypeURI+"|"+im.ResourceType, im); err != nil {
			return err
		}
	}
	_, _ = s.execLog.Append(store.LogEntry{Kind: "action-registered", Actor: actor, Detail: at.URI})
	return nil
}

// ActionTypes returns the browsable action library: all types when
// resourceType is empty (design-time browse, Fig. 3), otherwise only
// the types implemented for that resource type (run-time browse).
func (s *System) ActionTypes(resourceType string) []actionlib.ActionType {
	if resourceType == "" {
		return s.Registry.Types()
	}
	return s.Registry.TypesFor(resourceType)
}

// AddUser registers an account and persists it.
func (s *System) AddUser(u access.User) error {
	if err := s.ACL.AddUser(u); err != nil {
		return err
	}
	return s.users.Put(u.Name, u)
}

// AddGrant assigns a role and persists it.
func (s *System) AddGrant(g access.Grant) error {
	if err := s.ACL.Grant(g); err != nil {
		return err
	}
	return s.grants.Put(fmt.Sprintf("%s|%s|%s", g.Scope, g.User, g.Role), g)
}

// ---- run time ------------------------------------------------------------------

// Instantiate creates a lifecycle instance of the stored model on ref,
// owned by owner (who receives the instance-owner role when Auth is
// enabled).
func (s *System) Instantiate(modelURI string, ref resource.Ref, owner string, bindings map[string]map[string]string) (runtime.Snapshot, error) {
	m, ok := s.models.Get(modelURI)
	if !ok {
		return runtime.Snapshot{}, fmt.Errorf("gelee: no model %q", modelURI)
	}
	if err := s.Resources.Check(ref); err != nil {
		return runtime.Snapshot{}, err
	}
	// Stored models are replaced on redefinition, never edited, so the
	// runtime may share m as it is and find it again by pointer.
	snap, err := s.Runtime.InstantiateShared(m, ref, owner, bindings)
	if err != nil {
		return runtime.Snapshot{}, err
	}
	if s.opts.Auth && owner != "" {
		if _, ok := s.ACL.User(owner); ok {
			if err := s.AddGrant(access.Grant{User: owner, Role: access.RoleInstanceOwner, Scope: snap.ID}); err != nil {
				return runtime.Snapshot{}, err
			}
		}
	}
	return snap, nil
}

// InstanceCount reports the live instance population without copying
// any instance state.
func (s *System) InstanceCount() int { return s.Runtime.Count() }

// RecoveryStats reports what the startup instance-journal replay
// rebuilt; zeros when the journal was empty, as an in-memory one
// always is.
func (s *System) RecoveryStats() runtime.RecoveryStats {
	return s.Runtime.RuntimeStats().Persistence.Recovered
}

// Propagate saves the new model version and proposes it to every
// running instance that follows the same URI; owners decide
// individually (§IV.B). It returns the number of instances notified.
func (s *System) Propagate(actor string, m *core.Model, note string) (int, error) {
	if m == nil {
		return 0, errors.New("gelee: nil model")
	}
	if !s.canDesign(actor, m.URI) {
		return 0, fmt.Errorf("%w: %s may not redesign %s", ErrForbidden, actor, m.URI)
	}
	if err := s.DefineModel(actor, m); err != nil {
		return 0, err
	}
	n, err := s.Runtime.PropagateChange(actor, m, note)
	if err != nil {
		return n, err
	}
	_, _ = s.execLog.Append(store.LogEntry{Kind: "model-propagated", Actor: actor,
		Detail: fmt.Sprintf("%s to %d instance(s)", m.URI, n)})
	return n, nil
}
