package runtime

import (
	"sync"
	"time"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
)

// State is the lifecycle instance state. An instance stays Active until
// the token reaches an end phase; because the model is descriptive, the
// owner may move the token *out* of an end phase again, which re-opens
// the instance (recorded as a deviation).
type State string

// Instance states.
const (
	StateActive    State = "active"
	StateCompleted State = "completed"
)

// EventKind classifies execution-log events.
type EventKind string

// Event kinds recorded in an instance's history.
const (
	EventCreated        EventKind = "created"
	EventPhaseEntered   EventKind = "phase-entered"
	EventActionStarted  EventKind = "action-started"
	EventActionStatus   EventKind = "action-status"
	EventAnnotated      EventKind = "annotated"
	EventChangeProposed EventKind = "change-proposed"
	EventChangeApplied  EventKind = "change-applied"
	EventChangeRejected EventKind = "change-rejected"
	EventCompleted      EventKind = "completed"
	EventReopened       EventKind = "reopened"
)

// Event is one record in an instance's history. Deviation marks
// phase-entered events whose move was not a suggested transition —
// the owner exercising the descriptive model's freedom.
type Event struct {
	Seq        int       `json:"seq"`
	Time       time.Time `json:"time"`
	Kind       EventKind `json:"kind"`
	Actor      string    `json:"actor,omitempty"`
	Phase      string    `json:"phase,omitempty"`
	FromPhase  string    `json:"from_phase,omitempty"`
	Detail     string    `json:"detail,omitempty"`
	Deviation  bool      `json:"deviation,omitempty"`
	ActionURI  string    `json:"action_uri,omitempty"`
	Invocation string    `json:"invocation,omitempty"`
	Status     string    `json:"status,omitempty"`
}

// ActionExecution tracks one dispatched action invocation and the
// status messages reported through its callback URI.
type ActionExecution struct {
	InvocationID string    `json:"invocation_id"`
	ActionURI    string    `json:"action_uri"`
	ActionName   string    `json:"action_name"`
	Phase        string    `json:"phase"`
	StartedAt    time.Time `json:"started_at"`
	LastStatus   string    `json:"last_status,omitempty"`
	LastDetail   string    `json:"last_detail,omitempty"`
	Terminal     bool      `json:"terminal"`
	Updates      int       `json:"updates"`
	DispatchErr  string    `json:"dispatch_err,omitempty"`
}

// ChangeProposal is a pending model change pushed by a designer
// (§IV.B): the instance owner accepts (choosing a landing phase when
// needed) or rejects it.
type ChangeProposal struct {
	ProposedBy string      `json:"proposed_by"`
	ProposedAt time.Time   `json:"proposed_at"`
	Note       string      `json:"note,omitempty"`
	NewModel   *core.Model `json:"new_model"`
	Summary    string      `json:"summary"` // human-readable core.Diff
}

// instance is the mutable runtime record. Fields below mu are guarded
// by it; the fields above are immutable after Instantiate publishes
// the instance (modelURI is the one exception — it moves under mu when
// the owner switches models). Snapshots are handed out to callers.
type instance struct {
	id        string
	seq       int64 // creation order, for stable listings across shards
	res       resource.Ref
	owner     string
	createdAt time.Time
	// unresolved: action URIs that had no implementation for the
	// resource type at instantiation; informational (robustness).
	unresolved []string

	// mu guards every field below, plus modelURI. It is the only lock
	// held while mutating or deep-copying instance state.
	mu          sync.Mutex
	model       *core.Model // self-contained copy (light coupling)
	mcache      modelCache  // slices derived from model, rebuilt on swap
	modelURI    string      // provenance only; never followed at run time
	state       State
	current     string // phase id; empty = token still at BEGIN
	completedAt time.Time
	// instBindings: action URI -> param id -> value, bound at
	// instantiation time or later by the owner (still "inst" stage).
	instBindings map[string]map[string]string
	events       []Event
	// eventSeq is the Seq of the most recent event ever recorded; it
	// keeps numbering gapless when ring truncation drops old events.
	eventSeq int
	// truncatedEvs counts events dropped from the front of the in-memory
	// history (Config.MaxEventsInMemory); the retained window covers
	// seqs [truncatedEvs+1 .. eventSeq].
	truncatedEvs int
	// Incremental counters, maintained at mutation time so summaries and
	// the cockpit never need to rescan the history or the executions.
	deviations  int                         // phase-entered events flagged Deviation
	failedSteps int                         // terminal executions whose last status is failed
	pendingInvs int                         // executions not yet terminal
	executions  map[string]*ActionExecution // by invocation id
	execOrder   []string
	pending     *ChangeProposal
	// Per-phase stats, maintained on every phase-entered event (and so
	// rebuilt on replay): entered counts, completed residence, and the
	// phase currently accruing residence since residSince. Truncation-
	// proof, unlike an event rescan. Lazily allocated together.
	phaseEntered   map[string]int
	phaseResidence map[string]time.Duration
	residPhase     string
	residSince     time.Time
	// agg is the contribution this instance last added to the cockpit
	// aggregate; see aggContrib and aggEntry for its locking.
	agg aggEntry
}

// currentPhase returns the phase the instance sits in (nil when none
// or unknown to its model) and that phase's deadline resolved against
// the instance start. The due time is a wall-clock reading, with any
// monotonic reading stripped, so live and replayed instances (decoded
// times carry none) compare alike and the cockpit aggregate's due
// heaps see one total order; zero when the phase has no deadline. It
// is the one source of Summary.Due, the aggregate's late heaps and
// the LateOnly filter. Callers hold in.mu.
func (in *instance) currentPhase() (*core.Phase, time.Time) {
	if in.current == "" {
		return nil, time.Time{}
	}
	p, ok := in.model.Phase(in.current)
	if !ok {
		return nil, time.Time{}
	}
	return p, p.Deadline.DueAt(in.createdAt).Round(0)
}

// notePhaseEntered maintains the per-phase stats on a phase-entered
// event; callers hold in.mu (or own the instance exclusively).
func (in *instance) notePhaseEntered(phase string, at time.Time) {
	if in.phaseEntered == nil {
		in.phaseEntered = make(map[string]int)
		in.phaseResidence = make(map[string]time.Duration)
	}
	in.phaseEntered[phase]++
	if in.residPhase != "" {
		in.phaseResidence[in.residPhase] += at.Sub(in.residSince)
	}
	in.residPhase, in.residSince = phase, at
}

// Snapshot is an immutable copy of an instance's observable state.
// Model points at the instance's own model copy; treat it as read-only
// (the runtime never mutates a model in place — migration swaps in a
// fresh clone, so shared snapshots stay stable).
type Snapshot struct {
	ID           string                       `json:"id"`
	Model        *core.Model                  `json:"-"`
	ModelURI     string                       `json:"model_uri"`
	Resource     resource.Ref                 `json:"resource"`
	Owner        string                       `json:"owner"`
	State        State                        `json:"state"`
	Current      string                       `json:"current"`
	CreatedAt    time.Time                    `json:"created_at"`
	CompletedAt  time.Time                    `json:"completed_at,omitempty"`
	Events       []Event                      `json:"events"`
	Executions   []ActionExecution            `json:"executions"`
	Pending      *ChangeProposal              `json:"pending,omitempty"`
	Unresolved   []string                     `json:"unresolved,omitempty"`
	InstBindings map[string]map[string]string `json:"inst_bindings,omitempty"`
}

// modelCache holds the slices a summary needs that would otherwise be
// re-derived from the model on every listing — phase ids, initial
// phases and suggested targets per phase. It is rebuilt whenever a new
// model is installed (instantiation, migration, owner switch) and its
// slices are handed out to summaries without copying, so they must be
// treated as read-only, like Snapshot.Model.
type modelCache struct {
	phaseIDs  []string
	initial   []string
	suggested map[string][]string // phase id -> suggested targets
}

func buildModelCache(m *core.Model) modelCache {
	c := modelCache{
		phaseIDs:  m.PhaseIDs(),
		initial:   m.InitialPhases(),
		suggested: make(map[string][]string, len(m.Phases)),
	}
	for _, p := range m.Phases {
		c.suggested[p.ID] = m.SuggestedFrom(p.ID)
	}
	return c
}

// snapshot deep-copies the observable state; callers hold in.mu (or
// own the instance exclusively, as Instantiate does pre-publication).
func (in *instance) snapshot() Snapshot {
	s := Snapshot{
		ID:          in.id,
		Model:       in.model,
		ModelURI:    in.modelURI,
		Resource:    in.res.Clone(),
		Owner:       in.owner,
		State:       in.state,
		Current:     in.current,
		CreatedAt:   in.createdAt,
		CompletedAt: in.completedAt,
		Events:      append([]Event(nil), in.events...),
		Unresolved:  append([]string(nil), in.unresolved...),
	}
	for _, id := range in.execOrder {
		s.Executions = append(s.Executions, *in.executions[id])
	}
	if in.pending != nil {
		p := *in.pending
		s.Pending = &p
	}
	if len(in.instBindings) > 0 {
		s.InstBindings = make(map[string]map[string]string, len(in.instBindings))
		for uri, vals := range in.instBindings {
			inner := make(map[string]string, len(vals))
			for k, v := range vals {
				inner[k] = v
			}
			s.InstBindings[uri] = inner
		}
	}
	return s
}

// Summary is the lightweight list-view projection of an instance:
// identity, token position, incrementally maintained counters and the
// current phase's due-date inputs — no event history, no execution
// records and no model copy. Building one is O(1) in history length,
// and the counters make it sufficient for every cockpit aggregate: use
// it wherever a population is listed. The NextSuggested, Phases and
// Unresolved slices are shared with the runtime's internal caches —
// treat them as read-only, like Snapshot.Model.
type Summary struct {
	ID string `json:"id"`
	// Seq is the instance's creation sequence — the cursor of the
	// population paging (QuerySummaries).
	Seq       int64        `json:"seq"`
	ModelURI  string       `json:"model_uri"`
	ModelName string       `json:"model_name"`
	Resource  resource.Ref `json:"resource"`
	Owner     string       `json:"owner"`
	State     State        `json:"state"`
	Current   string       `json:"current"`
	// PhaseName is the display name of the current phase ("" at BEGIN).
	PhaseName   string    `json:"phase_name,omitempty"`
	CreatedAt   time.Time `json:"created_at"`
	CompletedAt time.Time `json:"completed_at,omitempty"`
	// Due is the current phase's deadline resolved against the instance
	// start; zero when the phase carries none or the token is at BEGIN.
	Due           time.Time `json:"due,omitempty"`
	NextSuggested []string  `json:"next_suggested"`
	Phases        []string  `json:"phases"`
	// Events counts every event ever recorded, including any truncated
	// out of memory; TruncatedEvents says how many of those were dropped.
	Events          int `json:"events"`
	TruncatedEvents int `json:"truncated_events,omitempty"`
	Executions      int `json:"executions"`
	// Incremental counters (see the package doc's read-path section).
	Deviations         int      `json:"deviations"`
	FailedSteps        int      `json:"failed_steps"`
	PendingInvocations int      `json:"pending_invocations"`
	Pending            string   `json:"pending_change,omitempty"`
	Unresolved         []string `json:"unresolved,omitempty"`
}

// summary builds the lightweight projection; callers hold in.mu. The
// NextSuggested, Phases and Unresolved slices are shared from the
// instance's model cache, not copied — treat them as read-only, the
// same contract as Snapshot.Model (the runtime never mutates them in
// place; model swaps rebuild a fresh cache).
func (in *instance) summary() Summary {
	s := Summary{
		ID:                 in.id,
		Seq:                in.seq,
		ModelURI:           in.modelURI,
		ModelName:          in.model.Name,
		Resource:           in.res.Clone(),
		Owner:              in.owner,
		State:              in.state,
		Current:            in.current,
		CreatedAt:          in.createdAt,
		CompletedAt:        in.completedAt,
		Phases:             in.mcache.phaseIDs,
		Events:             in.eventSeq,
		TruncatedEvents:    in.truncatedEvs,
		Executions:         len(in.execOrder),
		Deviations:         in.deviations,
		FailedSteps:        in.failedSteps,
		PendingInvocations: in.pendingInvs,
		Unresolved:         in.unresolved,
	}
	if in.current == "" {
		s.NextSuggested = in.mcache.initial
	} else {
		s.NextSuggested = in.mcache.suggested[in.current]
		if p, due := in.currentPhase(); p != nil {
			s.PhaseName = p.Name
			s.Due = due
		}
	}
	if in.pending != nil {
		s.Pending = in.pending.Summary
	}
	return s
}

// Late reports whether the summarized instance is active, sitting in a
// phase with a deadline, and past it at the given instant — the same
// predicate as Snapshot.Late, answered without a model copy.
func (s Summary) Late(now time.Time) bool {
	return s.State == StateActive && s.Current != "" && !s.Due.IsZero() && now.After(s.Due)
}

// CurrentPhase resolves the snapshot's current phase, nil while the
// token is still at BEGIN.
func (s Snapshot) CurrentPhase() *core.Phase {
	if s.Current == "" {
		return nil
	}
	p, _ := s.Model.Phase(s.Current)
	return p
}

// DueAt returns the deadline of the given phase resolved against the
// instance start, zero when none.
func (s Snapshot) DueAt(phaseID string) time.Time {
	p, ok := s.Model.Phase(phaseID)
	if !ok {
		return time.Time{}
	}
	return p.Deadline.DueAt(s.CreatedAt)
}

// Late reports whether the instance is active, sitting in a phase with a
// deadline, and past it at the given instant.
func (s Snapshot) Late(now time.Time) bool {
	if s.State != StateActive || s.Current == "" {
		return false
	}
	due := s.DueAt(s.Current)
	return !due.IsZero() && now.After(due)
}

// NextSuggested lists the suggested targets from the token's position
// (initial phases while at BEGIN).
func (s Snapshot) NextSuggested() []string {
	if s.Current == "" {
		return s.Model.InitialPhases()
	}
	return s.Model.SuggestedFrom(s.Current)
}
