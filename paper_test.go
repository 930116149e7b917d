package gelee

// The paper's experiments that no other test asserts. The figures and
// tables are asserted by the tests that exercise their code; README.md's
// "Paper claims" table maps each claim to its test.

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
	"github.com/liquidpub/gelee/internal/wfengine"
)

// TestE7LightCoupling is the §III.A ablation: a prescriptive engine
// refuses a deviation that gelée's descriptive model takes as one human
// act, and a model change reaches running instances as a proposal each
// owner accepts on their own.
func TestE7LightCoupling(t *testing.T) {
	const n = 4
	toEUReview := []string{"internalreview", "finalassembly", "eureview"}

	// Baseline: the engine owns the token, so EU review cannot send the
	// deliverable back to elaboration. Only a redeploy adds the edge,
	// and it migrates every running instance.
	eng := wfengine.New()
	if _, err := eng.Deploy(wfQualityPlan()); err != nil {
		t.Fatal(err)
	}
	var wf []string
	for i := 0; i < n; i++ {
		in, err := eng.Start("eu-deliverable")
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range toEUReview {
			if err := eng.Complete(in.ID, step); err != nil {
				t.Fatal(err)
			}
		}
		wf = append(wf, in.ID)
	}
	if err := eng.Complete(wf[0], "elaboration"); !errors.Is(err, wfengine.ErrNotAllowed) {
		t.Fatalf("prescriptive deviation = %v, want ErrNotAllowed", err)
	}
	withEdge := wfQualityPlan()
	withEdge.Next["eureview"] = append(withEdge.Next["eureview"], "elaboration")
	rep, err := eng.Redeploy(withEdge)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated+rep.Aborted != n {
		t.Fatalf("redeploy touched %d of %d running instances", rep.Migrated+rep.Aborted, n)
	}

	// gelée: the same move on a running instance is one Advance call,
	// recorded as a deviation, with the other instances untouched.
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i, owner := range []string{"unitn-lead", "epfl-lead", "inria-lead", "unifr-lead"} {
		ref := seedWikiDeliverable(t, sys, fmt.Sprintf("D1.%d", i+1))
		snap, err := sys.Instantiate(model.URI, ref, owner, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range append([]string{"elaboration"}, toEUReview...) {
			if _, err := sys.Advance(snap.ID, phase, owner, AdvanceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, snap.ID)
	}
	others := func() string {
		t.Helper()
		var snaps []Snapshot
		for _, id := range ids[1:] {
			snap, _ := sys.Instance(id)
			snaps = append(snaps, snap)
		}
		data, err := json.Marshal(snaps)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	before := others()
	snap, err := sys.Advance(ids[0], "elaboration", "unitn-lead", AdvanceOptions{Annotation: "EU asks for a rewrite"})
	if err != nil {
		t.Fatalf("deviation refused: %v", err)
	}
	last := snap.Events[len(snap.Events)-1]
	if snap.Current != "elaboration" || last.Kind != runtime.EventPhaseEntered || !last.Deviation || last.FromPhase != "eureview" {
		t.Fatalf("deviation recorded as %+v (current %q)", last, snap.Current)
	}
	if after := others(); after != before {
		t.Fatal("a deviation on one instance changed the others")
	}

	// Model change: complete one deliverable, then propagate a new
	// version. Every other instance gets a proposal and keeps running
	// the old model until its own owner accepts.
	for _, phase := range []string{"publication", "accepted"} {
		if _, err := sys.Advance(ids[3], phase, "unifr-lead", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	v2 := model.Clone()
	v2.Version.Number = "2.0"
	v2.Phases = append(v2.Phases, &Phase{ID: "archival", Name: "Archival"})
	v2.Transitions = append(v2.Transitions, Transition{From: "accepted", To: "archival"})
	proposed, err := sys.Propagate("", v2, "add archival")
	if err != nil {
		t.Fatal(err)
	}
	if proposed != n-1 {
		t.Fatalf("proposed to %d instances, want the %d not completed", proposed, n-1)
	}
	if done, _ := sys.Instance(ids[3]); done.Pending != nil {
		t.Fatal("completed instance received a proposal")
	}
	for i, owner := range []string{"unitn-lead", "epfl-lead", "inria-lead"} {
		if _, err := sys.AcceptChange(ids[i], owner, ""); err != nil {
			t.Fatal(err)
		}
		for j := range ids[:n-1] {
			got, _ := sys.Instance(ids[j])
			_, migrated := got.Model.Phase("archival")
			if accepted := j <= i; migrated != accepted || (got.Pending == nil) != accepted {
				t.Fatalf("after owner %d accepted: instance %d migrated=%t pending=%t", i, j, migrated, got.Pending != nil)
			}
		}
	}
}

// TestE8LiquidPubCockpit is §II.B.4 at the paper's scale: the 35
// LiquidPub deliverables at different stages, their status at a glance
// and, with particular attention, the late ones. Every headline number
// must match a per-instance recount.
func TestE8LiquidPubCockpit(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, Options{Clock: clock})
	model, deliverables := scenario.LiquidPub()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	for i, d := range deliverables {
		var err error
		switch d.Ref.Type {
		case "mediawiki":
			_, err = sys.Sims.Wiki.CreatePage(d.ID, d.Owner, "= "+d.Title+" =")
		case "gdoc":
			_, err = sys.Sims.GDocs.Create(d.ID, d.Title, d.Owner, "Draft of "+d.Title)
		case "svn":
			if _, err = sys.Sims.SVN.CreateRepo(d.ID); err == nil {
				_, err = sys.Sims.SVN.Commit(d.ID, d.Owner, "import "+d.Title)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(model.URI, d.Ref, d.Owner, map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": d.Reviewers},
			"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range scenario.HappyPath[:i%len(scenario.HappyPath)+1] {
			if _, err := sys.Advance(snap.ID, phase, d.Owner, AdvanceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Past the elaboration and internal-review deadlines.
	clock.Advance(45 * 24 * time.Hour)
	now := clock.Now()

	var active, completed int
	byPhase := map[string]int{}
	lateIDs := map[string]bool{}
	for _, s := range allInstances(sys) {
		switch s.State {
		case runtime.StateActive:
			active++
		case runtime.StateCompleted:
			completed++
		}
		byPhase[s.CurrentPhase().Name]++
		if s.Late(now) {
			lateIDs[s.ID] = true
		}
	}

	sum := sys.Monitor().Summarize()
	if sum.Total != 35 || sum.Active != active || sum.Completed != completed || completed == 0 {
		t.Fatalf("summary total/active/completed = %d/%d/%d, recount 35/%d/%d",
			sum.Total, sum.Active, sum.Completed, active, completed)
	}
	if !reflect.DeepEqual(sum.ByPhase, byPhase) {
		t.Fatalf("by phase = %v, recount %v", sum.ByPhase, byPhase)
	}
	// Completed deliverables sit in a terminal node; the working phases
	// hold exactly the active ones.
	working := 0
	for _, p := range model.Phases {
		if !p.Final {
			working += sum.ByPhase[p.Name]
		}
	}
	if working != sum.Active {
		t.Fatalf("working phases hold %d instances, active = %d", working, sum.Active)
	}
	late := sys.Monitor().Late()
	if len(late) == 0 || len(late) != len(lateIDs) || sum.Late != len(late) {
		t.Fatalf("late view = %d rows, summary late = %d, per-instance recount = %d", len(late), sum.Late, len(lateIDs))
	}
	for _, row := range late {
		if !lateIDs[row.InstanceID] {
			t.Fatalf("late view lists %s, which is not late", row.InstanceID)
		}
	}
}
