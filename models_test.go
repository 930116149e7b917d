package gelee

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

// TestInlineModelDataDirReopens opens a data dir written before the
// model table, whose records carry every model inline: a folded
// snapshot, then a tail with an instantiate, a proposal left pending
// and an owner switch. Instance pages, timelines, models and the
// pending proposal must read back byte-identical to what the writing
// version served, before and after a Compact rewrites the dir in the
// digest format and a restart replays that.
func TestInlineModelDataDirReopens(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "inline-model-datadir"), dir)
	golden := filepath.Join("testdata", "inline-model-golden")
	open := func() *System {
		clock := vclock.NewFake(time.Date(2009, 3, 2, 9, 0, 0, 0, time.UTC))
		return newSystem(t, Options{DataDir: dir, PersistInstances: true, EmbeddedPlugins: true, SyncActions: true, Clock: clock})
	}
	check := func(sys *System) {
		t.Helper()
		srv := httptest.NewServer(sys.HTTPHandler())
		defer srv.Close()
		same := func(name string, got []byte) {
			t.Helper()
			want, err := os.ReadFile(filepath.Join(golden, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs:\ngot  %s\nwant %s", name, got, want)
			}
		}
		get := func(name, path string) {
			t.Helper()
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			same(name, body)
		}
		get("instances.json", "/api/v1/instances?limit=50")
		for _, id := range []string{"li-000001", "li-000002", "li-000003"} {
			get(id+".json", "/api/v1/instances/"+id)
			get(id+".timeline.json", "/api/v1/instances/"+id+"/timeline?limit=50")
			snap, ok := sys.Instance(id)
			if !ok {
				t.Fatalf("%s missing", id)
			}
			same(id+".model.json", mustMarshal(t, snap.Model))
			if snap.Pending != nil {
				same(id+".pending.json", mustMarshal(t, snap.Pending))
			}
		}
		a, _ := sys.Instance("li-000001")
		c, _ := sys.Instance("li-000003")
		if a.Model != c.Model {
			t.Fatal("two instances of one version hold two model copies")
		}
		if a.Pending == nil || a.Pending.NewModel == a.Model {
			t.Fatalf("pending proposal shares the current version's entry: %+v", a.Pending)
		}
	}

	sys := open()
	check(sys)
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	check(sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = open()
	defer sys.Close()
	check(sys)
	if st := sys.RuntimeStats().Models; st.Entries != 3 || st.Refs != 4 {
		t.Fatalf("model table after restart = %+v, want 3 versions, 4 references", st)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// modelVariant returns version v of the test model under uri: the
// quality plan, renamed, with v extra phases, so every version keeps
// every phase of the ones before it.
func modelVariant(uri string, v int) *core.Model {
	m := scenario.QualityPlan()
	m.URI = uri
	m.Version.Number = fmt.Sprintf("%d.0", v)
	for i := 1; i < v; i++ {
		m.Phases = append(m.Phases, &core.Phase{ID: fmt.Sprintf("extra%d", i), Name: fmt.Sprintf("Extra %d", i)})
	}
	return m
}

// TestModelTableModelBased drives a seeded sequence of instantiate,
// define, propose, propagate, accept, reject, switch, fold and restart
// through the system and checks it, after every step, against a
// reference map from instance to model body: every instance reads back
// its own version (and its pending proposal's), one version is one
// entry — two instances or proposals share a model pointer exactly when
// their bodies are equal — and after every fold the table holds
// exactly the versions instances and pending proposals refer to.
func TestModelTableModelBased(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { modelTableRun(t, seed) })
	}
}

func modelTableRun(t *testing.T, seed uint64) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	defer func() { sys.Close() }()
	rng := rand.New(rand.NewPCG(seed, 7))
	uris := []string{"urn:gelee:models:table-a", "urn:gelee:models:table-b"}
	const versions = 4
	// A version's body in the canonical form the table keeps.
	body := func(m *core.Model) string { return string(mustMarshal(t, m.Clone())) }
	for _, u := range uris {
		if err := sys.DefineModel("", modelVariant(u, 1)); err != nil {
			t.Fatal(err)
		}
	}
	stored := map[string]string{uris[0]: body(modelVariant(uris[0], 1)), uris[1]: body(modelVariant(uris[1], 1))}
	ref := map[string]string{}  // instance -> model body
	pend := map[string]string{} // instance -> pending proposal body
	var ids []string
	pick := func() string { return ids[rng.IntN(len(ids))] }
	variant := func() *core.Model { return modelVariant(uris[rng.IntN(len(uris))], 1+rng.IntN(versions)) }

	check := func(step string, folded bool) {
		t.Helper()
		ptrOf := map[string]*core.Model{}
		share := func(id, what, want string, m *core.Model) {
			t.Helper()
			if got := body(m); got != want {
				t.Fatalf("%s: %s %s = %s, want %s", step, id, what, got, want)
			}
			if p, ok := ptrOf[want]; ok && p != m {
				t.Fatalf("%s: one version held by two entries (%s %s)", step, id, what)
			}
			ptrOf[want] = m
		}
		for _, id := range ids {
			snap, ok := sys.Instance(id)
			if !ok {
				t.Fatalf("%s: %s missing", step, id)
			}
			share(id, "model", ref[id], snap.Model)
			switch {
			case snap.Pending == nil && pend[id] != "":
				t.Fatalf("%s: %s lost its pending proposal", step, id)
			case snap.Pending != nil && pend[id] == "":
				t.Fatalf("%s: %s has an unexpected proposal", step, id)
			case snap.Pending != nil:
				share(id, "pending", pend[id], snap.Pending.NewModel)
			}
		}
		if folded {
			if got := sys.RuntimeStats().Models.Entries; got != len(ptrOf) {
				t.Fatalf("%s: model table holds %d versions, %d are referenced", step, got, len(ptrOf))
			}
		}
	}

	for step := 0; step < 160; step++ {
		op := rng.IntN(10)
		if len(ids) == 0 {
			op = 0
		}
		name := ""
		switch op {
		case 0, 1:
			u := uris[rng.IntN(len(uris))]
			i := len(ids)
			page := fmt.Sprintf("T%d", i)
			if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
				t.Fatal(err)
			}
			snap, err := sys.Instantiate(u, Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, snap.ID)
			ref[snap.ID] = stored[u]
			name = "instantiate " + u
		case 2:
			m := variant()
			if err := sys.DefineModel("", m); err != nil {
				t.Fatal(err)
			}
			stored[m.URI] = body(m)
			name = "define " + m.URI + " " + m.Version.Number
		case 3:
			id, m := pick(), variant()
			if err := sys.ProposeChange(id, "designer", m, ""); err != nil {
				t.Fatal(err)
			}
			pend[id] = body(m)
			name = "propose " + id
		case 4:
			m := variant()
			n, err := sys.Propagate("", m, "")
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, id := range ids {
				if snap, _ := sys.Instance(id); snap.ModelURI == m.URI {
					pend[id] = body(m)
					got++
				}
			}
			if n != got {
				t.Fatalf("propagate reached %d instances, %d follow %s", n, got, m.URI)
			}
			stored[m.URI] = body(m)
			name = "propagate " + m.URI
		case 5:
			id := pick()
			if _, err := sys.AcceptChange(id, "owner", ""); pend[id] == "" {
				if err == nil {
					t.Fatalf("accept without a proposal on %s", id)
				}
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			ref[id], pend[id] = pend[id], ""
			name = "accept " + id
		case 6:
			id := pick()
			if err := sys.RejectChange(id, "owner", ""); pend[id] == "" {
				if err == nil {
					t.Fatalf("reject without a proposal on %s", id)
				}
				continue
			} else if err != nil {
				t.Fatal(err)
			}
			pend[id] = ""
			name = "reject " + id
		case 7:
			id, m := pick(), variant()
			if _, err := sys.SwitchModel(id, "owner", m, ""); err != nil {
				t.Fatal(err)
			}
			ref[id], pend[id] = body(m), ""
			name = "switch " + id
		case 8:
			if err := sys.Compact(); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("step %d fold", step), true)
			continue
		case 9:
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			sys = newSystem(t, restartOpts(dir, clock))
			name = "restart"
		}
		check(fmt.Sprintf("step %d %s", step, name), false)
	}
}

// TestModelTableFoldBoundaryKillRecovery: the only instance of a
// version switches away and a fold drops the version; new instances
// then reuse it, one of them across a fold that removes the segment
// holding the body but not the record naming it. The system halts
// without flushing or closing, as TestRotationBoundaryKillRecovery
// does, and the reopen must replay every acknowledged record.
func TestModelTableFoldBoundaryKillRecovery(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys, err := New(restartOpts(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	main, alt := modelVariant("urn:gelee:models:main", 1), modelVariant("urn:gelee:models:alt", 1)
	for _, m := range []*core.Model{main, alt} {
		if err := sys.DefineModel("", m); err != nil {
			t.Fatal(err)
		}
	}
	instantiate := func(uri string) string {
		t.Helper()
		page := fmt.Sprintf("K%d", sys.InstanceCount())
		if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(uri, Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		return snap.ID
	}
	switchTo := func(id string, m *core.Model) {
		t.Helper()
		if _, err := sys.SwitchModel(id, "owner", m, ""); err != nil {
			t.Fatal(err)
		}
	}
	entries := func() int { return sys.RuntimeStats().Models.Entries }

	x := instantiate(alt.URI)
	switchTo(x, main) // alt's only instance moves away
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != 1 {
		t.Fatalf("after the fold the table holds %d versions, want 1", n)
	}

	y := instantiate(alt.URI) // alt's body goes to the journal again
	if err := sys.instances.Seal(); err != nil {
		t.Fatal(err)
	}
	z := instantiate(alt.URI) // names alt by digest; its body sits in the sealed segment
	switchTo(y, main)
	switchTo(z, main)
	// Folds the segment with alt's body, not z's record naming it: the
	// new snapshot's head must carry alt although nothing follows it.
	if err := sys.instances.Fold(); err != nil {
		t.Fatal(err)
	}
	w := instantiate(alt.URI)
	if err := sys.Annotate(w, "owner", "after the fold"); err != nil {
		t.Fatal(err)
	}
	sys.Runtime.WaitDispatch()
	want := snapshotJSON(t, sys)
	wantModels := map[string]string{}
	for _, id := range []string{x, y, z, w} {
		snap, _ := sys.Instance(id)
		wantModels[id] = string(mustMarshal(t, snap.Model))
	}
	sys.store.Halt()
	sys.instances.Halt()

	jf := filepath.Join(dir, "instances", "gelee.journal")
	f, err := os.OpenFile(jf, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":424242,"repo":"instances","op":"append","id":"li-0`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	sys2 := newSystem(t, restartOpts(dir, clock))
	defer sys2.Close()
	if got := snapshotJSON(t, sys2); !reflect.DeepEqual(want, got) {
		t.Fatalf("fold-boundary kill recovery diverged:\ngot  %v\nwant %v", got, want)
	}
	for id, m := range wantModels {
		snap, _ := sys2.Instance(id)
		if got := string(mustMarshal(t, snap.Model)); got != m {
			t.Fatalf("%s model after recovery = %s, want %s", id, got, m)
		}
	}
	if _, err := sys2.Advance(w, "elaboration", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestPropagateAddsOneVersion: propagating a new version to N
// instances adds exactly one model-table entry and writes its body to
// the journal at most once.
func TestPropagateAddsOneVersion(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	defer sys.Close()
	v1 := modelVariant("urn:gelee:models:propagated", 1)
	if err := sys.DefineModel("", v1); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		page := fmt.Sprintf("P%d", i)
		if _, err := sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Instantiate(v1.URI, Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	bodies := func() int {
		data, err := os.ReadFile(filepath.Join(dir, "instances", "gelee.journal"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(data), `"op":"model"`)
	}
	entries, written := sys.RuntimeStats().Models.Entries, bodies()
	if got, err := sys.Propagate("", modelVariant(v1.URI, 2), "v2"); err != nil || got != n {
		t.Fatalf("propagate = %d, %v; want %d", got, err, n)
	}
	if got := sys.RuntimeStats().Models.Entries; got != entries+1 {
		t.Fatalf("propagation to %d instances added %d table entries, want 1", n, got-entries)
	}
	if got := bodies() - written; got > 1 {
		t.Fatalf("propagation to %d instances wrote %d model bodies, want at most 1", n, got)
	}
}

// TestModelTableConcurrentFolds races instantiations, switches and
// proposals over a few versions — each version's references coming and
// going, so its entry leaves and re-enters the table — against
// back-to-back folds, then reopens the data dir: every acknowledged
// record must replay, each instance on its own version.
func TestModelTableConcurrentFolds(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	uris := []string{"urn:gelee:models:race-a", "urn:gelee:models:race-b"}
	for _, u := range uris {
		if err := sys.DefineModel("", modelVariant(u, 1)); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 30
	stop := make(chan struct{})
	folded := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			select {
			case <-stop:
				folded <- nil
				return
			default:
			}
			err = sys.Compact()
		}
		folded <- err
	}()
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewPCG(uint64(w), 3))
			var ids []string
			for r := 0; r < rounds; r++ {
				m := modelVariant(uris[rng.IntN(len(uris))], 1+rng.IntN(3))
				var err error
				switch {
				case len(ids) == 0 || rng.IntN(3) == 0:
					page := fmt.Sprintf("R%d-%d", w, r)
					if _, err = sys.Sims.Wiki.CreatePage(page, "owner", "x"); err != nil {
						break
					}
					var snap Snapshot
					snap, err = sys.Instantiate(uris[rng.IntN(len(uris))], Ref{URI: "http://wiki.liquidpub.org/pages/" + page, Type: "mediawiki"}, "owner", nil)
					ids = append(ids, snap.ID)
				case rng.IntN(2) == 0:
					_, err = sys.SwitchModel(ids[rng.IntN(len(ids))], "owner", m, "")
				default:
					err = sys.ProposeChange(ids[rng.IntN(len(ids))], "designer", m, "")
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-folded; err != nil {
		t.Fatal(err)
	}
	want := snapshotJSON(t, sys)
	models := func(sys *System) []string {
		var out []string
		for _, snap := range sys.Instances() {
			out = append(out, string(mustMarshal(t, snap.Model)))
		}
		return out
	}
	wantModels := models(sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = newSystem(t, restartOpts(dir, clock))
	defer sys.Close()
	if got := snapshotJSON(t, sys); !reflect.DeepEqual(got, want) {
		t.Fatal("instances diverged across concurrent folds and a restart")
	}
	if got := models(sys); !reflect.DeepEqual(got, wantModels) {
		t.Fatal("models diverged across concurrent folds and a restart")
	}
}

// TestModelViewSharesStoredModel pins the single copy of a stored
// model: ModelView and Models hand out the very pointer the runtime's
// instances run on, and a redefinition replaces that value instead of
// editing it, so ModelView serves the new version while a running
// instance keeps the old one.
func TestModelViewSharesStoredModel(t *testing.T) {
	sys := newSystem(t, Options{})
	v1 := modelVariant("urn:gelee:models:shared", 1)
	if err := sys.DefineModel("", v1); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Instantiate(v1.URI, seedWikiDeliverable(t, sys, "D1"), "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	view, ok := sys.ModelView(v1.URI)
	if !ok || view != snap.Model {
		t.Fatalf("ModelView = %p, %v; want the instance's model %p", view, ok, snap.Model)
	}
	if list := sys.Models(); len(list) != 1 || list[0] != view {
		t.Fatalf("Models = %v; want the one stored pointer %p", list, view)
	}
	if private, _ := sys.Model(v1.URI); private == view || !reflect.DeepEqual(private, view) {
		t.Fatal("Model must return a private copy equal to the stored model")
	}

	v2 := modelVariant(v1.URI, 2)
	if err := sys.DefineModel("", v2); err != nil {
		t.Fatal(err)
	}
	next, ok := sys.ModelView(v1.URI)
	if !ok || next == view || len(next.Phases) != len(v2.Phases) {
		t.Fatalf("after redefinition ModelView has %d phases (same pointer: %v); want the %d of v2",
			len(next.Phases), next == view, len(v2.Phases))
	}
	running, ok := sys.Instance(snap.ID)
	if !ok || running.Model != view || len(view.Phases) != len(v1.Phases) {
		t.Fatalf("running instance's model changed with the redefinition: %d phases, want v1's %d",
			len(running.Model.Phases), len(v1.Phases))
	}
}

// TestModelViewConcurrentRedefinition runs, under -race, readers that
// encode the shared stored model (ModelView, Models, the model route)
// and instantiate it while a writer keeps redefining it: a stored model
// is replaced, never edited, so no read may race a write.
func TestModelViewConcurrentRedefinition(t *testing.T) {
	sys := newSystem(t, Options{})
	const uri = "urn:gelee:models:redefined"
	if err := sys.DefineModel("", modelVariant(uri, 1)); err != nil {
		t.Fatal(err)
	}
	ref := seedWikiDeliverable(t, sys, "D1")
	h := sys.HTTPHandler()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 2; v <= 20; v++ {
			if err := sys.DefineModel("", modelVariant(uri, v)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				m, ok := sys.ModelView(uri)
				if !ok {
					t.Error("model vanished")
					return
				}
				if _, err := json.Marshal(m); err != nil {
					t.Error(err)
					return
				}
				for _, m := range sys.Models() {
					_ = m.PhaseIDs()
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/models/"+uri, nil))
				if rec.Code != 200 {
					t.Errorf("GET model: %d %s", rec.Code, rec.Body)
					return
				}
				if _, err := sys.Instantiate(uri, ref, "owner", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
