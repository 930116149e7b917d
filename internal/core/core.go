// Package core implements the universal resource lifecycle model of
// Báez, Casati and Marchese, "Universal Resource Lifecycle Management"
// (WISS/ICDE 2009), §IV.
//
// A lifecycle Model is essentially a finite state machine: a set of
// Phases connected by suggested Transitions. The phase describes the
// stage in life in which a resource is; transitions denote *possible*
// evolutions. The model is descriptive rather than prescriptive — it
// does not enforce the transitions it suggests (enforcement would defeat
// the paper's flexibility requirement, §II.B), so nothing in this
// package prevents an instance owner from moving the token anywhere.
//
// The model deliberately knows almost nothing about the resource it will
// manage: only a list of *suggested* resource types (strings naming the
// managing application, e.g. "gdoc" or "mediawiki"). Everything
// resource-specific lives in actions (see package actionlib) executed on
// phase entry.
//
// There are, by design, no path conditions, no transactions, and no
// exception handlers: the paper vetoes every feature that would push the
// model beyond what an advanced web user can learn "in a matter of
// minutes".
package core

import "time"

// Begin is the pseudo-phase used as the source of initial transitions,
// exactly as in the <transition><from>BEGIN</from>... element of the
// paper's Table I. It never appears as a real phase.
const Begin = "BEGIN"

// BindingTime says when an action parameter's value must be supplied.
// The vocabulary is the bindingTime attribute of Table II.
type BindingTime string

// Binding times from Table II: at lifecycle definition, at lifecycle
// instantiation, when the phase is entered (the action call), or at any
// of those moments.
const (
	BindDefinition    BindingTime = "def"
	BindInstantiation BindingTime = "inst"
	BindCall          BindingTime = "call"
	BindAny           BindingTime = "any"
)

// Valid reports whether b is one of the four defined binding times.
func (b BindingTime) Valid() bool {
	switch b {
	case BindDefinition, BindInstantiation, BindCall, BindAny:
		return true
	}
	return false
}

// AllowsDefinition reports whether a value may be bound at model
// definition time.
func (b BindingTime) AllowsDefinition() bool {
	return b == BindDefinition || b == BindAny
}

// AllowsInstantiation reports whether a value may be bound when the
// lifecycle is instantiated on a resource.
func (b BindingTime) AllowsInstantiation() bool {
	return b == BindInstantiation || b == BindAny
}

// AllowsCall reports whether a value may be bound as the phase is
// entered and the action invoked.
func (b BindingTime) AllowsCall() bool {
	return b == BindCall || b == BindAny
}

// VersionInfo carries the provenance block every model and action type
// declares (<version_info> in Tables I and II).
type VersionInfo struct {
	Number    string    // e.g. "1.0"
	CreatedBy string    // author user name
	Created   time.Time // creation date; day precision in the XML form
}

// Param is one parameter of an action call or action type. ID names the
// parameter; Value is its bound value, empty until bound. BindingTime
// and Required come from the action type definition (Table II) and are
// copied onto calls so a model document stays self-contained.
type Param struct {
	ID          string
	Value       string
	BindingTime BindingTime
	Required    bool
}

// ActionCall attaches an action to a phase. URI identifies the action
// type (the web service to invoke, Table I <action><uri>); Name is the
// human label shown in the designer. Params may be partially bound.
type ActionCall struct {
	URI    string
	Name   string
	Params []Param
}

// Param returns the parameter with the given id and whether it exists.
func (a *ActionCall) Param(id string) (Param, bool) {
	for _, p := range a.Params {
		if p.ID == id {
			return p, true
		}
	}
	return Param{}, false
}

// Clone returns a deep copy of the action call.
func (a ActionCall) Clone() ActionCall {
	c := a
	c.Params = append([]Param(nil), a.Params...)
	return c
}

// Deadline is the model's light time-constraint feature (§IV.A mentions
// deadlines and time constraints without elaborating; we implement the
// minimal useful form). Offset is relative to instance start; if
// Absolute is non-zero it wins. A zero Deadline means "none".
type Deadline struct {
	Offset   time.Duration
	Absolute time.Time
}

// IsZero reports whether no deadline is set.
func (d Deadline) IsZero() bool { return d.Offset == 0 && d.Absolute.IsZero() }

// DueAt resolves the deadline against the instant the lifecycle
// instance started. A zero deadline resolves to the zero time.
func (d Deadline) DueAt(started time.Time) time.Time {
	if !d.Absolute.IsZero() {
		return d.Absolute
	}
	if d.Offset != 0 {
		return started.Add(d.Offset)
	}
	return time.Time{}
}

// Phase is a stage in the life of a resource. Final phases denote
// completion in a certain final state; per §IV.B they must carry no
// actions. Phases with no actions at all are explicitly legal and
// useful — monitoring is a first-class purpose of the model.
type Phase struct {
	ID       string
	Name     string
	Final    bool
	Actions  []ActionCall
	Deadline Deadline
	Note     string // free-form annotation (§IV.A)
}

// Clone returns a deep copy of the phase; nil for nil, so a model
// holding a null phase clones and then fails Validate.
func (p *Phase) Clone() *Phase {
	if p == nil {
		return nil
	}
	c := *p
	c.Actions = make([]ActionCall, len(p.Actions))
	for i, a := range p.Actions {
		c.Actions[i] = a.Clone()
	}
	return &c
}

// Transition is a *suggested* evolution between phases. From may be the
// Begin pseudo-phase; To must be a real phase. Label is optional
// designer text (the "+ label" notation of Fig. 1).
type Transition struct {
	From  string
	To    string
	Label string
}

// Model is a lifecycle definition: the unit the designer edits, the XML
// of Table I serializes, and instances follow as an immutable version
// (light coupling, §IV.B). URI identifies the model; ResourceTypes are
// only *suggested* types — they restrict nothing at run time.
type Model struct {
	URI           string
	Name          string
	Version       VersionInfo
	ResourceTypes []string
	Phases        []*Phase
	Transitions   []Transition
	Annotations   []string
}

// Phase returns the phase with the given id and whether it exists.
func (m *Model) Phase(id string) (*Phase, bool) {
	for _, p := range m.Phases {
		if p.ID == id {
			return p, true
		}
	}
	return nil, false
}

// PhaseIDs returns the ids of all phases in declaration order.
func (m *Model) PhaseIDs() []string {
	ids := make([]string, len(m.Phases))
	for i, p := range m.Phases {
		ids[i] = p.ID
	}
	return ids
}

// InitialPhases returns the targets of transitions leaving Begin, in
// declaration order and without duplicates. If the model declares no
// initial transition the first phase is returned as a robustness
// fallback (requirement §II.B.6: partially specified models must remain
// usable).
func (m *Model) InitialPhases() []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range m.Transitions {
		if t.From == Begin && !seen[t.To] {
			if _, ok := m.Phase(t.To); ok {
				seen[t.To] = true
				out = append(out, t.To)
			}
		}
	}
	if len(out) == 0 && len(m.Phases) > 0 {
		out = append(out, m.Phases[0].ID)
	}
	return out
}

// SuggestedFrom returns the ids of phases reachable from the given phase
// by a suggested transition, in declaration order, without duplicates.
func (m *Model) SuggestedFrom(phaseID string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, t := range m.Transitions {
		if t.From == phaseID && !seen[t.To] {
			if _, ok := m.Phase(t.To); ok {
				seen[t.To] = true
				out = append(out, t.To)
			}
		}
	}
	return out
}

// Suggests reports whether a transition from → to is declared in the
// model. Moves that are not suggested are still possible at run time;
// the runtime records them as deviations.
func (m *Model) Suggests(from, to string) bool {
	for _, t := range m.Transitions {
		if t.From == from && t.To == to {
			return true
		}
	}
	return false
}

// FinalPhases returns the ids of all final phases.
func (m *Model) FinalPhases() []string {
	var out []string
	for _, p := range m.Phases {
		if p.Final {
			out = append(out, p.ID)
		}
	}
	return out
}

// SuggestsType reports whether the model suggests the given resource
// type. An empty suggestion list means the model is universal: every
// type is acceptable.
func (m *Model) SuggestsType(resourceType string) bool {
	if len(m.ResourceTypes) == 0 {
		return true
	}
	for _, t := range m.ResourceTypes {
		if t == resourceType {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the model. The runtime clones a model
// before it becomes a shared, immutable version, so that later edits
// to the caller's model never leak into running instances — the
// paper's light coupling between models and instances.
func (m *Model) Clone() *Model {
	c := *m
	c.ResourceTypes = append([]string(nil), m.ResourceTypes...)
	c.Annotations = append([]string(nil), m.Annotations...)
	c.Transitions = append([]Transition(nil), m.Transitions...)
	c.Phases = make([]*Phase, len(m.Phases))
	for i, p := range m.Phases {
		c.Phases[i] = p.Clone()
	}
	return &c
}
