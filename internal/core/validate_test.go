package core

import (
	"strings"
	"testing"
)

func findIssue(issues []Issue, code string) (Issue, bool) {
	for _, i := range issues {
		if i.Code == code {
			return i, true
		}
	}
	return Issue{}, false
}

func TestValidateAcceptsFig1(t *testing.T) {
	m := fig1(t)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate(fig1) = %v, want nil", err)
	}
}

func TestValidateRejectsEmptyModel(t *testing.T) {
	m := &Model{Name: "empty"}
	err := m.Validate()
	if err == nil {
		t.Fatal("Validate accepted a model with no phases")
	}
	if !IsValidation(err) {
		t.Fatalf("error %T is not a ValidationError", err)
	}
	ve := err.(*ValidationError)
	if _, ok := findIssue(ve.Issues, "no-phases"); !ok {
		t.Fatalf("missing no-phases issue in %v", ve.Issues)
	}
}

func TestValidateRejectsDuplicatePhaseIDs(t *testing.T) {
	m := &Model{Name: "dup", Phases: []*Phase{
		{ID: "a", Name: "A"}, {ID: "a", Name: "Again"},
	}}
	err := m.Validate()
	if err == nil {
		t.Fatal("Validate accepted duplicate phase ids")
	}
	if !strings.Contains(err.Error(), "duplicate-phase-id") {
		t.Fatalf("error %q does not mention duplicate-phase-id", err)
	}
}

func TestValidateRejectsReservedBeginID(t *testing.T) {
	m := &Model{Name: "bad", Phases: []*Phase{{ID: Begin, Name: "Nope"}}}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted a phase named BEGIN")
	}
}

func TestValidateRejectsFinalPhaseWithActions(t *testing.T) {
	// §IV.B: end phases have no associated actions.
	m := &Model{Name: "bad", Phases: []*Phase{
		{ID: "done", Name: "Done", Final: true, Actions: []ActionCall{{URI: "urn:x", Name: "X"}}},
	}}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "final-phase-with-actions") {
		t.Fatalf("Validate = %v, want final-phase-with-actions error", err)
	}
}

func TestValidateRejectsDanglingTransitions(t *testing.T) {
	m := &Model{Name: "bad",
		Phases:      []*Phase{{ID: "a", Name: "A"}},
		Transitions: []Transition{{From: "a", To: "ghost"}},
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "dangling-transition") {
		t.Fatalf("Validate = %v, want dangling-transition error", err)
	}
}

func TestValidateRejectsTransitionToBegin(t *testing.T) {
	m := &Model{Name: "bad",
		Phases:      []*Phase{{ID: "a", Name: "A"}},
		Transitions: []Transition{{From: "a", To: Begin}},
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "transition-to-begin") {
		t.Fatalf("Validate = %v, want transition-to-begin error", err)
	}
}

func TestValidateRejectsActionWithoutURI(t *testing.T) {
	m := &Model{Name: "bad", Phases: []*Phase{
		{ID: "a", Name: "A", Actions: []ActionCall{{Name: "mystery"}}},
	}}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "action-without-uri") {
		t.Fatalf("Validate = %v, want action-without-uri error", err)
	}
}

func TestValidateRejectsBadBindingTime(t *testing.T) {
	m := &Model{Name: "bad", Phases: []*Phase{
		{ID: "a", Name: "A", Actions: []ActionCall{{
			URI: "urn:x", Name: "X",
			Params: []Param{{ID: "p", BindingTime: "whenever"}},
		}}},
	}}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "bad-binding-time") {
		t.Fatalf("Validate = %v, want bad-binding-time error", err)
	}
}

func TestValidateRejectsDuplicateParams(t *testing.T) {
	m := &Model{Name: "bad", Phases: []*Phase{
		{ID: "a", Name: "A", Actions: []ActionCall{{
			URI: "urn:x", Name: "X",
			Params: []Param{{ID: "p"}, {ID: "p"}},
		}}},
	}}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "duplicate-param") {
		t.Fatalf("Validate = %v, want duplicate-param error", err)
	}
}

// Partial specifications must validate (robustness requirement §II.B.6):
// warnings only, no hard failure.
func TestValidateToleratesPartialSpecification(t *testing.T) {
	m := &Model{
		Name: "loose",
		Phases: []*Phase{
			{ID: "a", Name: "A"},
			{ID: "island", Name: "Unreachable"},
		},
		// no initial transition, no final phase, unreachable phase
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate rejected a partially specified but usable model: %v", err)
	}
	lint := m.Lint()
	for _, code := range []string{"no-initial-transition", "no-final-phase", "unreachable-phase"} {
		if _, ok := findIssue(lint, code); !ok {
			t.Errorf("Lint missing expected warning %q (got %v)", code, lint)
		}
	}
}

func TestLintFlagsSelfAndDuplicateTransitions(t *testing.T) {
	m := &Model{Name: "loops",
		Phases: []*Phase{{ID: "a", Name: "A"}, {ID: "b", Name: "B", Final: true}},
		Transitions: []Transition{
			{From: Begin, To: "a"},
			{From: "a", To: "a"},
			{From: "a", To: "b"},
			{From: "a", To: "b"},
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil (lint-only findings)", err)
	}
	lint := m.Lint()
	if _, ok := findIssue(lint, "self-transition"); !ok {
		t.Errorf("Lint missing self-transition warning: %v", lint)
	}
	if _, ok := findIssue(lint, "duplicate-transition"); !ok {
		t.Errorf("Lint missing duplicate-transition warning: %v", lint)
	}
}

func TestLintWarnsUnboundRequiredDefinitionParam(t *testing.T) {
	m := &Model{Name: "warn", Phases: []*Phase{
		{ID: "a", Name: "A", Actions: []ActionCall{{
			URI: "urn:x", Name: "X",
			Params: []Param{{ID: "p", BindingTime: BindDefinition, Required: true}},
		}}},
	}}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate = %v; unbound def-time param should only warn", err)
	}
	if _, ok := findIssue(m.Lint(), "unbound-definition-param"); !ok {
		t.Fatalf("Lint missing unbound-definition-param: %v", m.Lint())
	}
}

func TestIssueStringIncludesPhase(t *testing.T) {
	i := Issue{Severity: Error, Code: "x", Phase: "p1", Message: "boom"}
	s := i.String()
	for _, want := range []string{"error", "x", "p1", "boom"} {
		if !strings.Contains(s, want) {
			t.Errorf("Issue.String() = %q missing %q", s, want)
		}
	}
}

func TestValidationErrorListsAllIssues(t *testing.T) {
	m := &Model{ // two independent hard errors
		Phases: []*Phase{
			{ID: "", Name: "no id"},
			{ID: "done", Name: "Done", Final: true, Actions: []ActionCall{{URI: "u", Name: "n"}}},
		},
	}
	err := m.Validate()
	if err == nil {
		t.Fatal("expected validation failure")
	}
	msg := err.Error()
	if !strings.Contains(msg, "empty-phase-id") || !strings.Contains(msg, "final-phase-with-actions") {
		t.Fatalf("aggregated error %q should list both findings", msg)
	}
}

// TestValidateRejectsNullPhase: a null in the phase list — what
// `"Phases":[null]` decodes to — is a validation error, and neither
// Validate, Lint nor Clone panics on it.
func TestValidateRejectsNullPhase(t *testing.T) {
	m := fig1(t)
	m.Phases = append(m.Phases, nil)
	c := m.Clone()
	if c.Phases[len(c.Phases)-1] != nil {
		t.Fatal("Clone invented a phase for a null one")
	}
	err := c.Validate()
	if !IsValidation(err) {
		t.Fatalf("Validate(null phase) = %v, want a ValidationError", err)
	}
	if _, ok := findIssue(err.(*ValidationError).Issues, "null-phase"); !ok {
		t.Fatalf("missing null-phase issue in %v", err)
	}
	if _, ok := findIssue(c.Lint(), "null-phase"); !ok {
		t.Fatal("Lint does not report the null phase")
	}
}
