package core

import (
	"errors"
	"fmt"
	"strings"
)

// Severity classifies a lint finding.
type Severity int

// Lint severities. The model is deliberately forgiving: only findings
// that make a model meaningless (no phases, duplicate ids, dangling
// transitions, actions on final phases) are hard errors; everything else
// is a warning so that a partially specified lifecycle remains usable
// (requirement 6, §II.B).
const (
	Warning Severity = iota
	Error
)

// String returns "warning" or "error".
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Issue is one validation or lint finding.
type Issue struct {
	Severity Severity
	Code     string // stable machine-readable code, e.g. "dangling-transition"
	Phase    string // phase id the finding concerns, if any
	Message  string
}

// String formats the issue for humans.
func (i Issue) String() string {
	if i.Phase != "" {
		return fmt.Sprintf("%s: %s: phase %q: %s", i.Severity, i.Code, i.Phase, i.Message)
	}
	return fmt.Sprintf("%s: %s: %s", i.Severity, i.Code, i.Message)
}

// ValidationError aggregates the hard errors found by Validate.
type ValidationError struct {
	Issues []Issue
}

// Error joins the individual findings.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Issues))
	for i, is := range e.Issues {
		msgs[i] = is.String()
	}
	return "core: invalid model: " + strings.Join(msgs, "; ")
}

// IsValidation reports whether err is (or wraps) a *ValidationError.
func IsValidation(err error) bool {
	var ve *ValidationError
	return errors.As(err, &ve)
}

// Validate checks the hard structural rules of the model and returns a
// *ValidationError listing every violation, or nil if the model is
// usable. Soft findings are reported by Lint instead.
func (m *Model) Validate() error {
	var hard []Issue
	for _, is := range m.check() {
		if is.Severity == Error {
			hard = append(hard, is)
		}
	}
	if len(hard) > 0 {
		return &ValidationError{Issues: hard}
	}
	return nil
}

// Lint returns every finding, hard and soft, so designers can see
// warnings (unreachable phases, no final phase, duplicate transitions)
// that Validate deliberately tolerates.
func (m *Model) Lint() []Issue {
	return m.check()
}

func (m *Model) check() []Issue {
	var issues []Issue
	add := func(sev Severity, code, phase, format string, args ...any) {
		issues = append(issues, Issue{
			Severity: sev, Code: code, Phase: phase,
			Message: fmt.Sprintf(format, args...),
		})
	}

	// A null phase (`"Phases":[null]` in a body) leaves nothing to
	// check the rest of the model against.
	for i, p := range m.Phases {
		if p == nil {
			add(Error, "null-phase", "", "phase %d is null", i)
		}
	}
	if len(issues) > 0 {
		return issues
	}

	if strings.TrimSpace(m.Name) == "" {
		add(Warning, "unnamed-model", "", "model has no name")
	}
	if len(m.Phases) == 0 {
		add(Error, "no-phases", "", "model defines no phases")
	}

	seen := make(map[string]bool, len(m.Phases))
	for _, p := range m.Phases {
		switch {
		case strings.TrimSpace(p.ID) == "":
			add(Error, "empty-phase-id", "", "phase with empty id")
			continue
		case p.ID == Begin:
			add(Error, "reserved-phase-id", p.ID, "phase id %q is reserved for the initial pseudo-node", Begin)
			continue
		}
		if seen[p.ID] {
			add(Error, "duplicate-phase-id", p.ID, "phase id declared more than once")
		}
		seen[p.ID] = true

		if strings.TrimSpace(p.Name) == "" {
			add(Warning, "unnamed-phase", p.ID, "phase has no display name")
		}
		if p.Final && len(p.Actions) > 0 {
			// §IV.B: "End phases are phases with no associated actions".
			add(Error, "final-phase-with-actions", p.ID, "final phase declares %d action(s); end phases only denote completion", len(p.Actions))
		}
		for _, a := range p.Actions {
			if strings.TrimSpace(a.URI) == "" {
				add(Error, "action-without-uri", p.ID, "action %q has no type URI", a.Name)
			}
			pseen := make(map[string]bool, len(a.Params))
			for _, prm := range a.Params {
				if prm.ID == "" {
					add(Error, "param-without-id", p.ID, "action %q declares a parameter with no id", a.Name)
					continue
				}
				if pseen[prm.ID] {
					add(Error, "duplicate-param", p.ID, "action %q declares parameter %q twice", a.Name, prm.ID)
				}
				pseen[prm.ID] = true
				if prm.BindingTime != "" && !prm.BindingTime.Valid() {
					add(Error, "bad-binding-time", p.ID, "action %q parameter %q has unknown binding time %q", a.Name, prm.ID, prm.BindingTime)
				}
				if prm.Required && prm.BindingTime == BindDefinition && prm.Value == "" {
					add(Warning, "unbound-definition-param", p.ID, "action %q parameter %q is required at definition time but has no value", a.Name, prm.ID)
				}
			}
		}
	}

	hasInitial := false
	type edge struct{ from, to string }
	eseen := make(map[edge]bool, len(m.Transitions))
	for _, t := range m.Transitions {
		if t.From == Begin {
			hasInitial = true
		} else if !seen[t.From] {
			add(Error, "dangling-transition", t.From, "transition source %q is not a declared phase", t.From)
		}
		if !seen[t.To] {
			add(Error, "dangling-transition", t.To, "transition target %q is not a declared phase", t.To)
		}
		if t.To == Begin {
			add(Error, "transition-to-begin", "", "transition target may not be the %s pseudo-node", Begin)
		}
		if t.From == t.To {
			add(Warning, "self-transition", t.From, "self transition (allowed, but usually means a missing phase split)")
		}
		e := edge{t.From, t.To}
		if eseen[e] {
			add(Warning, "duplicate-transition", t.From, "transition %s -> %s declared more than once", t.From, t.To)
		}
		eseen[e] = true
	}
	if !hasInitial && len(m.Phases) > 0 {
		add(Warning, "no-initial-transition", "", "no transition from %s; first phase %q will be the default start", Begin, m.Phases[0].ID)
	}
	if len(m.FinalPhases()) == 0 && len(m.Phases) > 0 {
		add(Warning, "no-final-phase", "", "model declares no final phase; instances can never complete")
	}

	// Reachability over suggested transitions only. Unreachable phases
	// are a warning, not an error: free moves can reach any phase, and a
	// descriptive model may keep phases purely for documentation.
	if len(m.Phases) > 0 && len(issues) == 0 || len(m.Phases) > 0 {
		reached := make(map[string]bool)
		queue := append([]string(nil), m.InitialPhases()...)
		for _, q := range queue {
			reached[q] = true
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range m.SuggestedFrom(cur) {
				if !reached[next] {
					reached[next] = true
					queue = append(queue, next)
				}
			}
		}
		for _, p := range m.Phases {
			if p.ID != "" && !reached[p.ID] {
				add(Warning, "unreachable-phase", p.ID, "phase is not reachable via suggested transitions (free moves can still reach it)")
			}
		}
	}
	return issues
}
