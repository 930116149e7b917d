package gelee

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
)

// restartOpts is the hosted-deployment configuration under test:
// journaled data tier plus the durable instance runtime.
func restartOpts(dir string, clock *vclock.Fake) Options {
	return Options{
		DataDir:          dir,
		Clock:            clock,
		EmbeddedPlugins:  true,
		SyncActions:      true,
		PersistInstances: true,
	}
}

// seedWorkload drives a representative mixed workload and returns the
// instance ids: happy-path moves with real plug-in actions, a
// deviation, an annotation, a pending proposal, an accepted migration.
func seedWorkload(t testing.TB, sys *System) []string {
	t.Helper()
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("D1.%d", i+1)
		if _, err := sys.Sims.Wiki.CreatePage(id, "owner", "= "+id+" ="); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(model.URI, Ref{URI: "http://wiki.liquidpub.org/pages/" + id, Type: "mediawiki"},
			"owner", map[string]map[string]string{
				"http://www.liquidpub.org/a/notify": {"reviewers": "alice,bob"},
				"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
			})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
		for j := 0; j <= i; j++ {
			if _, err := sys.Advance(snap.ID, scenario.HappyPath[j], "owner", AdvanceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := sys.Advance(ids[0], "publication", "owner", AdvanceOptions{Annotation: "deadline deviation"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Annotate(ids[1], "owner", "waiting on partner text"); err != nil {
		t.Fatal(err)
	}
	v2 := scenario.QualityPlan()
	v2.Phases = append(v2.Phases, &Phase{ID: "archival", Name: "Archival"})
	if err := sys.ProposeChange(ids[2], "designer", v2, "add archival"); err != nil {
		t.Fatal(err)
	}
	if err := sys.ProposeChange(ids[3], "designer", v2, "add archival"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AcceptChange(ids[3], "owner", "archival"); err != nil {
		t.Fatal(err)
	}
	return ids
}

func snapshotJSON(t testing.TB, sys *System) []string {
	t.Helper()
	var out []string
	for _, snap := range allInstances(sys) {
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(data))
	}
	return out
}

// TestInstanceRecoveryAcrossRestart: a clean close/reopen cycle brings
// back every instance — token positions, histories, executions,
// pending changes — plus working indexes, counters and phase stats.
func TestInstanceRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	ids := seedWorkload(t, sys)
	// Past the early deadlines, so the cockpit summary has late
	// instances to carry across the restart.
	clock.Advance(45 * 24 * time.Hour)
	wantCockpit := sys.Monitor().Summarize()
	if wantCockpit.Late == 0 {
		t.Fatalf("no late instance before restart: %+v", wantCockpit)
	}
	want := snapshotJSON(t, sys)
	wantSums, err := json.Marshal(allSummaries(sys))
	if err != nil {
		t.Fatal(err)
	}
	wantPhase, _ := sys.PhaseStats(ids[0], clock.Now())
	wantLog := sys.ExecutionLog().Len()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := newSystem(t, restartOpts(dir, clock))
	rec := sys2.RecoveryStats()
	if rec.Instances != len(ids) {
		t.Fatalf("recovered %d instances, want %d", rec.Instances, len(ids))
	}
	if rec.Records == 0 || rec.Events == 0 || rec.Executions == 0 {
		t.Fatalf("recovery stats empty: %+v", rec)
	}
	// The breakdown names where replay spent its time: the reader's
	// read and envelope share, the appliers' decode and apply share.
	if rec.Read <= 0 || rec.Envelope <= 0 || rec.Decode <= 0 || rec.Apply <= 0 {
		t.Fatalf("recovery breakdown empty: %+v", rec)
	}
	if rs := sys2.StoreStats().Instances.Replay; rs.Read != rec.Read || rs.Envelope != rec.Envelope {
		t.Fatalf("store replay stats %+v disagree with the recovery breakdown %+v", rs, rec)
	}
	got := snapshotJSON(t, sys2)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("instances diverged after restart:\nbefore %v\nafter  %v", want, got)
	}
	gotSums, err := json.Marshal(allSummaries(sys2))
	if err != nil {
		t.Fatal(err)
	}
	if string(wantSums) != string(gotSums) {
		t.Fatalf("summaries diverged:\nbefore %s\nafter  %s", wantSums, gotSums)
	}
	if got := sys2.Monitor().Summarize(); !reflect.DeepEqual(wantCockpit, got) {
		t.Fatalf("cockpit summary diverged:\nbefore %+v\nafter  %+v", wantCockpit, got)
	}
	if sys2.ExecutionLog().Len() != wantLog {
		t.Fatalf("execution log = %d entries, want %d", sys2.ExecutionLog().Len(), wantLog)
	}
	gotPhase, ok := sys2.PhaseStats(ids[0], clock.Now())
	if !ok || !reflect.DeepEqual(wantPhase, gotPhase) {
		t.Fatalf("phase stats diverged: %v vs %v", wantPhase, gotPhase)
	}
	// Indexes answer queries and the recovered instances keep moving.
	if got := sys2.Runtime.ByResource("http://wiki.liquidpub.org/pages/D1.1"); len(got) != 1 {
		t.Fatalf("ByResource after restart = %d", len(got))
	}
	if snap, _ := sys2.Instance(ids[2]); snap.Pending == nil {
		t.Fatal("pending proposal lost")
	}
	if _, err := sys2.AcceptChange(ids[2], "owner", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Advance(ids[1], "internalreview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
	// The admin stats advertise the persistence seam.
	st := sys2.RuntimeStats().Persistence
	if !st.Enabled || st.Recovered.Instances != len(ids) {
		t.Fatalf("persistence stats = %+v", st)
	}
	if ss := sys2.StoreStats(); ss.Instances == nil || ss.Instances.Appends == 0 {
		t.Fatalf("store stats missing instance engine: %+v", ss.Instances)
	}
}

// TestInstanceRecoveryAfterKill: no Close at all — the System is
// abandoned mid-life and the journal even gets a torn partial batch
// (what a kill -9 mid-write leaves). The restarted system must recover
// exactly the acknowledged state and keep serving.
func TestInstanceRecoveryAfterKill(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys, err := New(restartOpts(dir, clock))
	if err != nil {
		t.Fatal(err)
	}
	// No sys.Close, ever: every acknowledged mutation must already be
	// in the journal file.
	ids := seedWorkload(t, sys)
	sys.Runtime.WaitDispatch()
	want := snapshotJSON(t, sys)

	// Torn tail: a batch cut short mid-write.
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
	got := snapshotJSON(t, sys2)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("killed-process recovery diverged:\nbefore %v\nafter  %v", want, got)
	}
	if _, err := sys2.Advance(ids[0], "eureview", "owner", AdvanceOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWithoutPersistInstances pins the paper's original
// data-tier split as the opt-out: definitions survive, instances are
// RAM-only — their journal runs on an in-memory file system, so
// nothing of it lands under the data dir.
func TestRestartWithoutPersistInstances(t *testing.T) {
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	opts := restartOpts(dir, clock)
	opts.PersistInstances = false
	sys := newSystem(t, opts)
	seedWorkload(t, sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2 := newSystem(t, opts)
	if got := sys2.InstanceCount(); got != 0 {
		t.Fatalf("instances without persistence = %d, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "instances")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("instance journal dir on disk without PersistInstances (stat err %v)", err)
	}
}

// TestTimelineStitchesTruncatedHistory: with a small in-memory ring,
// the timeline serves ring-truncated prefixes from outside the ring —
// the full record stays addressable, paging included.
func TestTimelineStitchesTruncatedHistory(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	opts := Options{Clock: clock, MaxEventsInMemory: 10}
	sys := newSystem(t, opts)
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Instantiate(model.URI, Ref{URI: "urn:backfill:r1", Type: "url"}, "owner", nil)
	if err != nil {
		t.Fatal(err)
	}
	const notes = 40
	for i := 0; i < notes; i++ {
		if err := sys.Annotate(snap.ID, "owner", fmt.Sprintf("note %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	total := notes + 1 // created + annotations

	// The ring was truncated…
	truncated := int(sys.RuntimeStats().EventsTruncated)
	if truncated == 0 {
		t.Fatal("test did not exercise truncation")
	}
	// …but the timeline stitches the dropped prefix back in front.
	page, err := sys.Events(snap.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Truncated {
		t.Fatalf("stitched page still truncated: %+v", page)
	}
	if len(page.Events) != total || page.Backfilled != truncated || page.OldestSeq != truncated+1 {
		t.Fatalf("stitched page: %d events (want %d), backfilled %d, oldest %d (want %d, %d)",
			len(page.Events), total, page.Backfilled, page.OldestSeq, truncated, truncated+1)
	}
	for i, ev := range page.Events {
		if ev.Seq != i+1 {
			t.Fatalf("stitched seq gap at %d: %d", i, ev.Seq)
		}
	}
	if page.Events[0].Kind != runtime.EventCreated {
		t.Fatalf("first stitched event = %+v", page.Events[0])
	}

	// Paged reads inside the truncated prefix work too.
	mid, _ := sys.Events(snap.ID, 3, 5)
	if len(mid.Events) != 5 || mid.Events[0].Seq != 4 || mid.Truncated || mid.Backfilled != 5 {
		t.Fatalf("mid-prefix page: %+v", mid)
	}
	// A page starting in retained territory comes from the ring alone.
	tail, _ := sys.Events(snap.ID, total-3, 0)
	if tail.Backfilled != 0 || len(tail.Events) != 3 {
		t.Fatalf("tail page: %+v", tail)
	}
	// The timeline's first page, with its cursor, rides the same
	// stitched path.
	tl, err := sys.Events(snap.ID, 0, 8)
	if err != nil || len(tl.Events) != 8 || tl.Events[0].Seq != 1 || tl.Backfilled == 0 || tl.NextAfter != 8 {
		t.Fatalf("timeline page: %+v (%v)", tl, err)
	}
}

// TestSummariesPageCursor walks the population by creation-seq cursor
// and expects the pages to tile the full listing exactly.
func TestSummariesPageCursor(t *testing.T) {
	sys := newSystem(t, Options{})
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	const n = 9
	for i := 0; i < n; i++ {
		if _, err := sys.Instantiate(model.URI, Ref{URI: fmt.Sprintf("urn:page:r%d", i), Type: "url"}, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	all := allSummaries(sys)
	var walked []string
	var after int64
	pages := 0
	for {
		page := sys.QuerySummaries(Filter{}, after, 4)
		if page.Total != n {
			t.Fatalf("total = %d, want %d", page.Total, n)
		}
		for _, s := range page.Summaries {
			walked = append(walked, s.ID)
		}
		pages++
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
	if pages != 3 {
		t.Fatalf("walked %d pages, want 3", pages)
	}
	if len(walked) != n {
		t.Fatalf("walked %d summaries, want %d", len(walked), n)
	}
	for i, s := range all {
		if walked[i] != s.ID {
			t.Fatalf("page order diverged at %d: %s vs %s", i, walked[i], s.ID)
		}
	}
	// Paging past the tail is empty, cursor 0.
	if page := sys.QuerySummaries(Filter{}, all[n-1].Seq, 4); len(page.Summaries) != 0 || page.NextAfter != 0 {
		t.Fatalf("past-tail page: %+v", page)
	}
}

// TestPopulationIndexOrderAfterCompactRestart: Compact writes the
// instance snapshot in creation order, and the recovered runtime serves
// the same filtered pages. The order is checked on the file itself:
// how many population-index inserts a restart shuffles depends on how
// the parallel replay's workers interleave, which varies with the core
// count (TestPopulationIndexSnapshotEmitOrder checks that an in-order
// replay makes none).
func TestPopulationIndexOrderAfterCompactRestart(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	sys := newSystem(t, restartOpts(dir, clock))
	models := []*Model{scenario.QualityPlan(), scenario.QualityPlan()}
	models[1].URI += ":v2"
	for _, m := range models {
		if err := sys.DefineModel("", m); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ref := Ref{URI: fmt.Sprintf("urn:order:r%d", i), Type: "url"}
		if _, err := sys.Instantiate(models[i%2].URI, ref, "owner", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	pages := func(sys *System) [][]string {
		var out [][]string
		for _, f := range []runtime.Filter{{}, {ModelURI: models[0].URI}, {ModelURI: models[1].URI, State: runtime.StateActive}} {
			var ids []string
			for _, s := range sys.QuerySummaries(f, 0, 0).Summaries {
				ids = append(ids, s.ID)
			}
			out = append(out, ids)
		}
		return out
	}
	want := pages(sys)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	coll := store.OpenInstances(filepath.Join(dir, "instances"), store.InstancesOptions{})
	var order []string
	if err := coll.Replay(func(id string, data []byte) error {
		var rec runtime.JournalRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		if rec.Op != runtime.RecModel { // the snapshot head's model bodies
			order = append(order, id)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := coll.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, want[0]) {
		t.Fatalf("snapshot records out of creation order:\nfile     %v\ncreation %v", order, want[0])
	}

	sys2 := newSystem(t, restartOpts(dir, clock))
	defer sys2.Close()
	if rec := sys2.RecoveryStats(); rec.Instances != n || rec.Records != n {
		t.Fatalf("recovered %d instances from %d records, want %d from one snapshot each", rec.Instances, rec.Records, n)
	}
	if got := pages(sys2); !reflect.DeepEqual(got, want) {
		t.Fatalf("pages across Compact + restart:\nbefore %v\nafter  %v", want, got)
	}
}
