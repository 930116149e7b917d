package gelee

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/access"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

// newSystem builds an embedded, deterministic system with all simulated
// plug-ins wired.
func newSystem(t testing.TB, opts Options) *System {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	}
	opts.EmbeddedPlugins = true
	opts.SyncActions = true
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

// seedWikiDeliverable creates the underlying wiki page and returns its
// resource ref.
func seedWikiDeliverable(t testing.TB, sys *System, id string) Ref {
	t.Helper()
	if _, err := sys.Sims.Wiki.CreatePage(id, "unitn-lead", "= "+id+" ="); err != nil {
		t.Fatal(err)
	}
	return Ref{URI: "http://wiki.liquidpub.org/pages/" + id, Type: "mediawiki"}
}

func TestEndToEndDeliverableLifecycle(t *testing.T) {
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	ref := seedWikiDeliverable(t, sys, "D1.1")

	snap, err := sys.Instantiate(model.URI, ref, "unitn-lead", map[string]map[string]string{
		"http://www.liquidpub.org/a/notify": {"reviewers": "epfl-reviewer,inria-reviewer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	id := snap.ID

	// Walk the Fig. 1 happy path.
	for _, phase := range scenario.HappyPath {
		opts := AdvanceOptions{}
		if phase == "publication" {
			opts.CallBindings = map[string]map[string]string{
				"http://www.liquidpub.org/a/post": {"site": "project.liquidpub.org"},
			}
		}
		if _, err := sys.Advance(id, phase, "unitn-lead", opts); err != nil {
			t.Fatalf("Advance(%s): %v", phase, err)
		}
	}
	got, _ := sys.Instance(id)
	if got.State != runtime.StateCompleted {
		t.Fatalf("state = %s", got.State)
	}
	// Fig. 1's shape: five working phases plus two terminal nodes.
	if finals := got.Model.FinalPhases(); len(got.Model.Phases) != 7 || len(finals) != 2 {
		t.Fatalf("phases = %d, finals = %v; Fig. 1 has 5 + 2", len(got.Model.Phases), finals)
	}

	// Entering each phase dispatched its actions, and every one
	// completed through the embedded plug-ins.
	wantActions := 0
	for _, phase := range scenario.HappyPath {
		p, _ := got.Model.Phase(phase)
		wantActions += len(p.Actions)
	}
	if len(got.Executions) != wantActions {
		t.Fatalf("executions = %d, want one per phase action (%d)", len(got.Executions), wantActions)
	}
	for _, ex := range got.Executions {
		if !ex.Terminal || ex.LastStatus != "completed" {
			t.Fatalf("execution %+v did not complete", ex)
		}
	}
	// The managing application saw the side effects: protection was
	// changed, reviewers watch the page, publication lifted protection.
	page, _ := sys.Sims.Wiki.Page("D1.1")
	if len(page.Watchers) < 2 {
		t.Fatalf("watchers = %v", page.Watchers)
	}
	if page.Protection != "none" {
		t.Fatalf("protection after publication = %s", page.Protection)
	}
	// Reviewers were notified through the notification substrate.
	if len(sys.Sims.Notify.Inbox("epfl-reviewer")) == 0 {
		t.Fatal("reviewer not notified")
	}
	// The instance history captured the full walk; the execution log
	// holds only the definition audit trail.
	hist, err := sys.Events(id, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Events) < 10 || hist.Events[0].Kind != "created" || hist.Total != len(hist.Events) {
		t.Fatalf("instance history = %d of %d events", len(hist.Events), hist.Total)
	}
	for _, e := range sys.ExecutionLog().All() {
		if e.Instance != "" {
			t.Fatalf("execution log mirrors an instance event: %+v", e)
		}
	}
}

func TestUniversalitySameModelThreeResourceTypes(t *testing.T) {
	// §IV.C: the same lifecycle and the same actions on resources of
	// different types.
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	sys.Sims.Wiki.CreatePage("D1.1", "a", "text")
	sys.Sims.GDocs.Create("D2.1", "Doc D2.1", "a", "text")
	sys.Sims.SVN.CreateRepo("D3.1")
	sys.Sims.SVN.Commit("D3.1", "a", "import")

	refs := []Ref{
		{URI: "http://wiki.liquidpub.org/pages/D1.1", Type: "mediawiki"},
		{URI: "http://docs.liquidpub.org/docs/D2.1", Type: "gdoc"},
		{URI: "svn://svn.liquidpub.org/D3.1", Type: "svn"},
	}
	for _, ref := range refs {
		snap, err := sys.Instantiate(model.URI, ref, "owner", map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": "r1"},
		})
		if err != nil {
			t.Fatalf("%s: %v", ref.Type, err)
		}
		if _, err := sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); err != nil {
			t.Fatalf("%s: %v", ref.Type, err)
		}
		if _, err := sys.Advance(snap.ID, "internalreview", "owner", AdvanceOptions{}); err != nil {
			t.Fatalf("%s: %v", ref.Type, err)
		}
		got, _ := sys.Instance(snap.ID)
		// chr resolves for every type; notify only for wiki and gdoc.
		var chrOK, notifyFailed bool
		for _, ex := range got.Executions {
			if ex.ActionURI == "http://www.liquidpub.org/a/chr" && ex.LastStatus == "completed" {
				chrOK = true
			}
			if ex.ActionURI == "http://www.liquidpub.org/a/notify" && ex.LastStatus == "failed" {
				notifyFailed = true
			}
		}
		if !chrOK {
			t.Errorf("%s: change-access-rights did not complete: %+v", ref.Type, got.Executions)
		}
		if ref.Type == "svn" && !notifyFailed {
			t.Errorf("svn: notify should fail (no implementation)")
		}
		if ref.Type != "svn" && notifyFailed {
			t.Errorf("%s: notify failed unexpectedly", ref.Type)
		}
	}
	// The wiki page and the google doc both had their rights changed,
	// each through its own native concept.
	page, _ := sys.Sims.Wiki.Page("D1.1")
	if page.Protection != "autoconfirmed" {
		t.Errorf("wiki protection = %s", page.Protection)
	}
	doc, _ := sys.Sims.GDocs.Get("D2.1")
	if doc.Mode != "reviewers-only" {
		t.Errorf("gdoc mode = %s", doc.Mode)
	}
	repo, _ := sys.Sims.SVN.Repo("D3.1")
	if repo.Authz != "reviewers-only" {
		t.Errorf("svn authz = %s", repo.Authz)
	}
}

func TestPropagateToRunningInstances(t *testing.T) {
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	sys.DefineModel("", model)
	ref := seedWikiDeliverable(t, sys, "D1.1")
	ref2 := seedWikiDeliverable(t, sys, "D1.2")

	a, _ := sys.Instantiate(model.URI, ref, "owner", nil)
	b, _ := sys.Instantiate(model.URI, ref2, "owner", nil)
	sys.Advance(a.ID, "elaboration", "owner", AdvanceOptions{})
	// Complete b so propagation skips it.
	sys.Advance(b.ID, "accepted", "owner", AdvanceOptions{Annotation: "already delivered"})

	v2 := model.Clone()
	v2.Version.Number = "2.0"
	v2.Phases = append(v2.Phases, &Phase{ID: "archival", Name: "Archival"})
	v2.Transitions = append(v2.Transitions, Transition{From: "accepted", To: "archival"})
	n, err := sys.Propagate("", v2, "add archival phase")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("proposed to %d instances, want 1 (completed skipped)", n)
	}
	got, _ := sys.Instance(a.ID)
	if got.Pending == nil {
		t.Fatal("proposal missing on running instance")
	}
	// Owner accepts; stored model is now v2.
	after, err := sys.AcceptChange(a.ID, "owner", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := after.Model.Phase("archival"); !ok {
		t.Fatal("migrated instance lacks new phase")
	}
	stored, _ := sys.Model(model.URI)
	if stored.Version.Number != "2.0" {
		t.Fatalf("stored model version = %s", stored.Version.Number)
	}
}

func TestAuthEnforcesRoles(t *testing.T) {
	sys := newSystem(t, Options{Auth: true})
	for _, u := range []string{"coordinator", "owner", "dev", "stranger"} {
		if err := sys.AddUser(User{Name: u}); err != nil {
			t.Fatal(err)
		}
	}
	model := scenario.QualityPlan()
	if err := sys.DefineModel("coordinator", model); err != nil {
		t.Fatal(err)
	}
	// Defining a fresh URI granted the lifecycle-manager role.
	if !sys.ACL.CanDesign("coordinator", model.URI) {
		t.Fatal("definer did not receive the lifecycle-manager role")
	}
	// A stranger cannot redefine it.
	v2 := model.Clone()
	v2.Name = "hijacked"
	if err := sys.DefineModel("stranger", v2); !errors.Is(err, ErrForbidden) {
		t.Fatalf("err = %v, want ErrForbidden", err)
	}

	ref := seedWikiDeliverable(t, sys, "D1.1")
	snap, err := sys.Instantiate(model.URI, ref, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The owner got the instance-owner role automatically.
	if _, err := sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	// dev (no role) cannot move the token.
	if _, err := sys.Advance(snap.ID, "internalreview", "dev", AdvanceOptions{}); !errors.Is(err, runtime.ErrForbidden) {
		t.Fatalf("err = %v, want forbidden", err)
	}
	// Grant dev a targeted token-owner role; the granted transition works.
	sys.AddGrant(Grant{User: "dev", Role: RoleTokenOwner, Scope: snap.ID, Targets: []string{"internalreview"}})
	if _, err := sys.Advance(snap.ID, "internalreview", "dev", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	// But deviations stay owner-only.
	if _, err := sys.Advance(snap.ID, "publication", "dev", AdvanceOptions{}); !errors.Is(err, runtime.ErrForbidden) {
		t.Fatalf("err = %v, want forbidden", err)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))

	sys, err := New(Options{DataDir: dir, Clock: clock, EmbeddedPlugins: true, SyncActions: true})
	if err != nil {
		t.Fatal(err)
	}
	model := scenario.QualityPlan()
	sys.DefineModel("", model)
	sys.SaveTemplate("", model)
	sys.AddUser(User{Name: "coordinator", Admin: true})
	sys.AddGrant(Grant{User: "coordinator", Role: RoleLifecycleManager, Scope: model.URI})
	sys.RegisterAction("", ActionType{URI: "urn:custom:act", Name: "Custom"},
		Implementation{ResourceType: "mediawiki", Endpoint: "http://x/act", Protocol: "rest"})
	sys.Sims.Wiki.CreatePage("D1.1", "o", "x")
	snap, err := sys.Instantiate(model.URI, Ref{URI: "http://wiki/D1.1", Type: "mediawiki"}, "coordinator", nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.Advance(snap.ID, "elaboration", "coordinator", AdvanceOptions{})
	logLen := sys.ExecutionLog().Len()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the data tier (Fig. 2) must come back — models,
	// templates, users, grants, action definitions, execution log.
	sys2, err := New(Options{DataDir: dir, Clock: clock, EmbeddedPlugins: true, SyncActions: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if _, ok := sys2.Model(model.URI); !ok {
		t.Fatal("model lost")
	}
	if _, ok := sys2.Template(model.URI); !ok {
		t.Fatal("template lost")
	}
	if !sys2.UserExists("coordinator") {
		t.Fatal("user lost")
	}
	if !sys2.ACL.Has("coordinator", access.RoleLifecycleManager, model.URI) {
		t.Fatal("grant lost")
	}
	if _, ok := sys2.Registry.Type("urn:custom:act"); !ok {
		t.Fatal("action type lost")
	}
	if _, err := sys2.Registry.Resolve("urn:custom:act", "mediawiki"); err != nil {
		t.Fatalf("action implementation lost: %v", err)
	}
	if sys2.ExecutionLog().Len() != logLen {
		t.Fatalf("execution log = %d entries, want %d", sys2.ExecutionLog().Len(), logLen)
	}
	// Per Fig. 2 the data tier holds definitions and logs, not live
	// instances — without Options.PersistInstances a fresh runtime
	// starts empty (restart_test.go covers the durable-instances mode).
	if got := len(allInstances(sys2)); got != 0 {
		t.Fatalf("instances after restart = %d, want 0 (paper's data tier)", got)
	}
}

func TestTemplatesAreIndependentCopies(t *testing.T) {
	sys := newSystem(t, Options{})
	m := scenario.QualityPlan()
	sys.SaveTemplate("", m)
	tpl, _ := sys.Template(m.URI)
	tpl.Name = "customized for D7.1"
	fresh, _ := sys.Template(m.URI)
	if fresh.Name == "customized for D7.1" {
		t.Fatal("template storage aliased")
	}
}

// TestActionBrowsing is Fig. 3: at design time the designer browses
// every action type; at run time only the types the resource's plug-in
// implements are offered.
func TestActionBrowsing(t *testing.T) {
	sys := newSystem(t, Options{})
	all := sys.ActionTypes("")
	if len(all) < 6 {
		t.Fatalf("design-time browse = %d types", len(all))
	}
	svn := sys.ActionTypes("svn")
	if len(svn) != 3 {
		t.Fatalf("runtime browse for svn = %d types, want 3", len(svn))
	}
	designTime := make(map[string]bool, len(all))
	for _, at := range all {
		designTime[at.URI] = true
	}
	for _, typ := range []string{"gdoc", "mediawiki", "svn"} {
		got := sys.ActionTypes(typ)
		if len(got) == 0 || len(got) >= len(all) {
			t.Fatalf("runtime browse for %s = %d types, want a strict subset of %d", typ, len(got), len(all))
		}
		for _, at := range got {
			if !designTime[at.URI] {
				t.Fatalf("runtime browse for %s offers %s, absent at design time", typ, at.URI)
			}
		}
	}
	if got := sys.ActionTypes("teleporter"); len(got) != 0 {
		t.Fatalf("unknown type browse = %d", len(got))
	}
}

func TestInstantiateUnknownModel(t *testing.T) {
	sys := newSystem(t, Options{})
	if _, err := sys.Instantiate("urn:ghost", Ref{URI: "u", Type: "t"}, "o", nil); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestInstantiateChecksResourceExists(t *testing.T) {
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	sys.DefineModel("", model)
	// mediawiki plug-in is registered, so Check hits it: missing page.
	_, err := sys.Instantiate(model.URI, Ref{URI: "http://wiki/ghost", Type: "mediawiki"}, "o", nil)
	if err == nil || !strings.Contains(err.Error(), "no page") {
		t.Fatalf("err = %v, want wiki existence failure", err)
	}
	// But a URI with an unmanaged type is always accepted (universality).
	if _, err := sys.Instantiate(model.URI, Ref{URI: "urn:house:42", Type: "house-under-construction"}, "o", nil); err != nil {
		t.Fatalf("unmanaged type refused: %v", err)
	}
}

// TestWidgetsAndMonitorWiredIn is Fig. 4: the widget shows the
// lifecycle strip and the resource side by side, and its feed can be
// composed into pipes.
func TestWidgetsAndMonitorWiredIn(t *testing.T) {
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	sys.DefineModel("", model)
	ref := seedWikiDeliverable(t, sys, "D1.1")
	snap, _ := sys.Instantiate(model.URI, ref, "owner", nil)
	sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{})

	html, err := sys.Widgets().HTML(snap.ID, "anyone")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html, "D1.1") {
		t.Fatal("widget does not render the resource")
	}
	for _, p := range model.Phases {
		if !strings.Contains(html, p.Name) {
			t.Fatalf("widget HTML lacks lifecycle phase %q", p.Name)
		}
	}
	view, err := sys.Widgets().View(snap.ID, "anyone")
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Phases) != len(model.Phases) || view.Current != "elaboration" || view.Resource.Title == "" {
		t.Fatalf("widget view = %d phases, current %q, resource %+v", len(view.Phases), view.Current, view.Resource)
	}
	if len(view.NextSuggested) != 1 || view.NextSuggested[0] != "internalreview" {
		t.Fatalf("widget suggests %v, want [internalreview]", view.NextSuggested)
	}
	feed, err := sys.Widgets().Feed(snap.ID, "anyone")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(feed), "<rss") || !strings.Contains(string(feed), "phase-entered: elaboration") {
		t.Fatalf("widget feed is not an RSS history:\n%s", feed)
	}
	sum := sys.Monitor().Summarize()
	if sum.Total != 1 || sum.ByPhase["Elaboration"] != 1 {
		t.Fatalf("summary = %+v", sum)
	}
}

// allSummaries returns the summary of every instance in creation
// order, one unbounded population page.
func allSummaries(sys *System) []Summary {
	return sys.QuerySummaries(Filter{}, 0, 0).Summaries
}

// allInstances returns a full snapshot of every instance in creation
// order: the population page, each summary resolved through Instance.
func allInstances(sys *System) []Snapshot {
	var out []Snapshot
	for _, s := range allSummaries(sys) {
		if snap, ok := sys.Instance(s.ID); ok {
			out = append(out, snap)
		}
	}
	return out
}
