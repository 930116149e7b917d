package gelee

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/store"
	"github.com/liquidpub/gelee/internal/vclock"
	"github.com/liquidpub/gelee/internal/widget"
)

// historyFixture opens a persisted system with a 10-event ring, two
// instances and enough annotations that each has all three history
// tiers: an archived batch (written by a Compact), a spill truncated
// since, and the ring. It returns the ids and the first and second
// truncation marks: archives cover seqs 1..cut1, the spill
// cut1+1..cut2.
func historyFixture(t *testing.T, dir string) (sys *System, ids []string, cut1, cut2 int) {
	t.Helper()
	clock := vclock.NewFake(time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC))
	opts := restartOpts(dir, clock)
	opts.MaxEventsInMemory = 10
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	model := scenario.QualityPlan()
	if err := sys.DefineModel("", model); err != nil {
		t.Fatal(err)
	}
	for _, page := range []string{"H1", "H2"} {
		snap, err := sys.Instantiate(model.URI, seedWikiDeliverable(t, sys, page), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, snap.ID)
	}
	annotate := func(n int) int {
		for i := 0; i < n; i++ {
			for _, id := range ids {
				clock.Advance(time.Minute)
				if err := sys.Annotate(id, "owner", fmt.Sprintf("note %d", i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		sum, _ := sys.Summary(ids[0])
		return sum.TruncatedEvents
	}
	cut1 = annotate(40)
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	cut2 = annotate(25)
	if cut1 < 10 || cut2 < cut1+10 {
		t.Fatalf("fixture did not build three tiers: cuts %d, %d", cut1, cut2)
	}
	return sys, ids, cut1, cut2
}

// historyPages renders, per instance, the full history and pages that
// start inside the archived part, the spill and the ring, plus pages
// straddling each boundary, as JSON.
func historyPages(t *testing.T, sys *System, ids []string, cut1, cut2 int) []string {
	t.Helper()
	cursors := [][2]int{{0, 0}, {2, 5}, {cut1 - 2, 6}, {cut1 + 1, 5}, {cut2 - 2, 6}, {cut2 + 1, 5}}
	var out []string
	for _, id := range ids {
		for _, c := range cursors {
			page, err := sys.Events(id, c[0], c[1])
			if err != nil {
				t.Fatalf("%s after %d limit %d: %v", id, c[0], c[1], err)
			}
			data, _ := json.Marshal(page)
			out = append(out, string(data))
		}
	}
	return out
}

// TestHistoryPagesIdenticalAcrossFoldAndRestart: with a ring of 10 on
// a data dir, every timeline page — backfill count included — is
// byte-identical live, after a Compact archives the spill, after a
// second Compact with nothing to archive, and after a restart.
func TestHistoryPagesIdenticalAcrossFoldAndRestart(t *testing.T) {
	dir := t.TempDir()
	sys, ids, cut1, cut2 := historyFixture(t, dir)
	live := historyPages(t, sys, ids, cut1, cut2)

	// The live pages stitch all three tiers without a gap.
	full, _ := sys.Events(ids[0], 0, 0)
	if full.Truncated || full.Backfilled != cut2 || full.OldestSeq != cut2+1 || len(full.Events) != full.Total {
		t.Fatalf("full page: truncated=%t backfilled=%d oldest=%d events=%d/%d",
			full.Truncated, full.Backfilled, full.OldestSeq, len(full.Events), full.Total)
	}
	for i, ev := range full.Events {
		if ev.Seq != i+1 {
			t.Fatalf("stitched history has a gap at %d: seq %d", i, ev.Seq)
		}
	}
	if spill, _ := sys.Events(ids[0], cut1+1, 5); spill.Backfilled != 5 {
		t.Fatalf("spill page backfilled %d, want 5", spill.Backfilled)
	}
	if ring, _ := sys.Events(ids[0], cut2+1, 5); ring.Backfilled != 0 {
		t.Fatalf("ring page backfilled %d, want 0", ring.Backfilled)
	}

	assertPages := func(stage string) {
		t.Helper()
		got := historyPages(t, sys, ids, cut1, cut2)
		for i := range live {
			if got[i] != live[i] {
				t.Fatalf("%s: page %d changed:\nlive %s\nnow  %s", stage, i, live[i], got[i])
			}
		}
	}
	for _, stage := range []string{"first compact", "second compact"} {
		if err := sys.Compact(); err != nil {
			t.Fatal(err)
		}
		assertPages(stage)
		// The first fold archived the spill; the second had none.
		if st := sys.StoreStats().Instances; st.Archives != 2 || st.ArchivesWritten != 2 {
			t.Fatalf("%s: %d archives, %d written this life", stage, st.Archives, st.ArchivesWritten)
		}
	}
	// Archived events left RAM: only the rings remain.
	rs := sys.RuntimeStats()
	if rs.EventsInMemory != 2*int64(full.Total-cut2) || rs.EventsTruncated != 2*int64(cut2) {
		t.Fatalf("after folds: %d events in memory, %d truncated", rs.EventsInMemory, rs.EventsTruncated)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys = newSystem(t, Options{DataDir: dir, PersistInstances: true, MaxEventsInMemory: 10})
	assertPages("restart")
	if st := sys.StoreStats().Instances; st.Archives != 2 || st.Replay.ArchiveRefs != 2 {
		t.Fatalf("restart adopted %d archives (%d refs)", st.Archives, st.Replay.ArchiveRefs)
	}
}

// TestCorruptHistoryArchiveIsAnError: a history archive that fails its
// checksum fails the pages that need it — through the runtime and over
// HTTP — instead of serving a short page; pages inside the ring are
// unaffected.
func TestCorruptHistoryArchiveIsAnError(t *testing.T) {
	dir := t.TempDir()
	sys, ids, cut1, _ := historyFixture(t, dir)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	// Same length, valid JSON, wrong bytes: only the checksum notices.
	path := filepath.Join(dir, "instances", "archive.000001.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("note 1"))
	if i < 0 {
		t.Fatal("archive does not hold the annotations")
	}
	data[i+1] = 'O'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sys = newSystem(t, Options{DataDir: dir, PersistInstances: true, MaxEventsInMemory: 10})
	if _, err := sys.Events(ids[0], 0, 5); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("page over a corrupt archive: %v, want ErrCorrupt", err)
	}
	if _, err := sys.Events(ids[1], 0, 0); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("timeline over a corrupt archive: %v, want ErrCorrupt", err)
	}
	if page, err := sys.Events(ids[0], cut1, 5); err != nil || len(page.Events) != 5 {
		t.Fatalf("page past the archive: %d events, %v", len(page.Events), err)
	}

	srv := httptest.NewServer(sys.HTTPHandler())
	defer srv.Close()
	for _, c := range []struct {
		after, want int
	}{{0, http.StatusInternalServerError}, {cut1, http.StatusOK}} {
		resp, err := http.Get(fmt.Sprintf("%s/api/v1/instances/%s/timeline?after=%d&limit=5", srv.URL, ids[0], c.after))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("timeline after=%d = %d, want %d", c.after, resp.StatusCode, c.want)
		}
	}
}

// TestMirroredExecutionLogDataDirReopens opens a data dir written while
// the execution log still mirrored every instance event (entries with
// an instance id and a typed "data" copy of the event). It must open,
// page its old entries through /admin/log, serve the instances'
// timelines from the instance journal, and keep appending audit
// entries after them.
func TestMirroredExecutionLogDataDirReopens(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "mirrored-execlog"), dir)
	opts := Options{DataDir: dir, PersistInstances: true}
	sys := newSystem(t, opts)
	const logged = 10 // model-defined + 9 mirrored instance events
	if n := sys.ExecutionLog().Len(); n != logged {
		t.Fatalf("execution log = %d entries, want %d", n, logged)
	}
	srv := httptest.NewServer(sys.HTTPHandler())
	defer srv.Close()
	type entry struct {
		Seq      uint64 `json:"seq"`
		Instance string `json:"instance"`
		Kind     string `json:"kind"`
	}
	var all []entry
	after := uint64(0)
	for {
		var page struct {
			Items     []json.RawMessage `json:"items"`
			Total     int               `json:"total"`
			NextAfter uint64            `json:"next_after"`
		}
		getJSON(t, fmt.Sprintf("%s/api/v1/admin/log?after=%d&limit=4", srv.URL, after), &page)
		if page.Total != logged {
			t.Fatalf("page total = %d, want %d", page.Total, logged)
		}
		for _, raw := range page.Items {
			if bytes.Contains(raw, []byte(`"data"`)) {
				t.Fatalf("legacy data field served: %s", raw)
			}
			var e entry
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			all = append(all, e)
		}
		if page.NextAfter == 0 {
			break
		}
		after = page.NextAfter
	}
	if len(all) != logged || all[0].Kind != "model-defined" || all[1].Instance != "li-000001" || all[1].Kind != "created" {
		t.Fatalf("paged log: %+v", all)
	}
	for i, e := range all {
		if e.Seq != uint64(i+1) {
			t.Fatalf("log entry %d has seq %d", i, e.Seq)
		}
	}

	// Instance history comes from the instance journal, whole.
	for _, c := range []struct {
		id     string
		events int
	}{{"li-000001", 3}, {"li-000002", 6}} {
		page, err := sys.Events(c.id, 0, 0)
		if err != nil || len(page.Events) != c.events || page.Total != c.events || page.Truncated {
			t.Fatalf("%s history: %+v (%v)", c.id, page, err)
		}
	}

	// New audit entries continue the numbering; moves add none.
	if err := sys.DefineModel("designer", scenario.QualityPlan()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Annotate("li-000001", "owner", "after the upgrade"); err != nil {
		t.Fatal(err)
	}
	if n := sys.ExecutionLog().Len(); n != logged+1 {
		t.Fatalf("execution log = %d entries after one definition, want %d", n, logged+1)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = newSystem(t, opts)
	if page, err := sys.Events("li-000001", 0, 0); err != nil || page.Total != 4 {
		t.Fatalf("history after a second restart: %+v (%v)", page, err)
	}
}

// TestArchivedExecutionLogDataDirReopens opens a data dir whose
// execution log was spilled into archives while logs still did that:
// 30 model-defined entries written with an 8-entry live window and
// compacted twice, leaving seqs 1-7 in archive.000001, 8-22 in
// archive.000002 and 23-30 live in the snapshot. /admin/log must page
// every entry once, in Seq order, across both archive seams; a
// Compact and a reopen must write no archive and change no page.
func TestArchivedExecutionLogDataDirReopens(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "archived-execlog"), dir)
	opts := Options{DataDir: dir, PersistInstances: true}
	sys := newSystem(t, opts)
	const logged = 30
	if n := sys.ExecutionLog().Len(); n != logged {
		t.Fatalf("execution log = %d entries, want %d", n, logged)
	}
	if got := sys.StoreStats().Logs["execlog"]; got.Live != 8 || got.Archived != 22 || got.Archives != 2 {
		t.Fatalf("hot/cold split = %+v, want {8 22 2}", got)
	}

	pageAll := func(sys *System) []byte {
		t.Helper()
		srv := httptest.NewServer(sys.HTTPHandler())
		defer srv.Close()
		var all []store.LogEntry
		after := uint64(0)
		for {
			var page struct {
				Items     []store.LogEntry `json:"items"`
				Total     int              `json:"total"`
				NextAfter uint64           `json:"next_after"`
			}
			getJSON(t, fmt.Sprintf("%s/api/v1/admin/log?after=%d&limit=4", srv.URL, after), &page)
			if page.Total != logged {
				t.Fatalf("page total = %d, want %d", page.Total, logged)
			}
			all = append(all, page.Items...)
			if page.NextAfter == 0 {
				break
			}
			after = page.NextAfter
		}
		if len(all) != logged {
			t.Fatalf("paged %d entries, want %d", len(all), logged)
		}
		for i, e := range all {
			if e.Seq != uint64(i+1) || e.Kind != "model-defined" {
				t.Fatalf("paged entry %d: %+v", i, e)
			}
		}
		paged, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := json.Marshal(sys.ExecutionLog().All())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(paged, whole) {
			t.Fatalf("paged log differs from ExecutionLog().All():\n%s\n%s", paged, whole)
		}
		return paged
	}
	archives := func() []string {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "archive.*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	before := pageAll(sys)
	archivesBefore := archives()
	if len(archivesBefore) != 2 {
		t.Fatalf("fixture archives = %v", archivesBefore)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = newSystem(t, opts)
	if got := archives(); !slices.Equal(got, archivesBefore) {
		t.Fatalf("archives after Compact and reopen = %v, want %v", got, archivesBefore)
	}
	if after := pageAll(sys); !bytes.Equal(before, after) {
		t.Fatal("paged log changed across Compact and reopen")
	}
}

// copyDir copies a directory tree of regular files.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// getJSON decodes a 200 response's body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatal(err)
	}
}

// TestWidgetFeedIdenticalWhenRingTruncated: the widget feed of an
// instance whose ring holds 4 events carries the same newest
// widget.FeedItems items as that of an unbounded twin — live, after a
// Compact archives the truncated events, and after a restart.
func TestWidgetFeedIdenticalWhenRingTruncated(t *testing.T) {
	start := time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC)
	open := func(dir string, ring int) *System {
		opts := restartOpts(dir, vclock.NewFake(start))
		opts.MaxEventsInMemory = ring
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	drive := func(sys *System) string {
		model := scenario.QualityPlan()
		if err := sys.DefineModel("", model); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(model.URI, seedWikiDeliverable(t, sys, "F1"), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		clock := sys.opts.Clock.(*vclock.Fake)
		if _, err := sys.Advance(snap.ID, "elaboration", "owner", AdvanceOptions{}); err != nil {
			t.Fatal(err)
		}
		for i := range widget.FeedItems + 10 {
			clock.Advance(time.Minute)
			if err := sys.Annotate(snap.ID, "owner", fmt.Sprintf("note <%d> & more", i)); err != nil {
				t.Fatal(err)
			}
		}
		return snap.ID
	}
	feed := func(sys *System, id string) string {
		t.Helper()
		out, err := sys.Widgets().Feed(id, "owner")
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	twinDir, dir := t.TempDir(), t.TempDir()
	twin := open(twinDir, 0)
	defer twin.Close()
	want := feed(twin, drive(twin))
	if n := strings.Count(want, "<item>"); n != widget.FeedItems {
		t.Fatalf("twin feed has %d items, want %d", n, widget.FeedItems)
	}

	sys := open(dir, 4)
	id := drive(sys)
	if sum, _ := sys.Summary(id); sum.TruncatedEvents < widget.FeedItems {
		t.Fatalf("ring truncated only %d of %d events", sum.TruncatedEvents, sum.Events)
	}
	if got := feed(sys, id); got != want {
		t.Fatalf("live feed differs from the unbounded twin's:\n got %s\nwant %s", got, want)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := feed(sys, id); got != want {
		t.Fatalf("feed after Compact differs from the unbounded twin's:\n got %s\nwant %s", got, want)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = open(dir, 4)
	defer sys.Close()
	if got := feed(sys, id); got != want {
		t.Fatalf("feed after restart differs from the unbounded twin's:\n got %s\nwant %s", got, want)
	}
}

// TestWidgetViewIdenticalWhenRingTruncated: the widget view of an
// instance whose ring holds 4 events — its phase-entered events long
// truncated out of memory — equals that of an unbounded twin, visited
// marks included: live, after a Compact archives the truncated events,
// and after a restart.
func TestWidgetViewIdenticalWhenRingTruncated(t *testing.T) {
	start := time.Date(2009, 2, 1, 9, 0, 0, 0, time.UTC)
	open := func(dir string, ring int) *System {
		opts := restartOpts(dir, vclock.NewFake(start))
		opts.MaxEventsInMemory = ring
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	drive := func(sys *System) string {
		model := scenario.QualityPlan()
		if err := sys.DefineModel("", model); err != nil {
			t.Fatal(err)
		}
		snap, err := sys.Instantiate(model.URI, seedWikiDeliverable(t, sys, "V1"), "owner", nil)
		if err != nil {
			t.Fatal(err)
		}
		clock := sys.opts.Clock.(*vclock.Fake)
		for _, phase := range []string{"elaboration", "internalreview", "elaboration"} {
			clock.Advance(time.Hour)
			if _, err := sys.Advance(snap.ID, phase, "owner", AdvanceOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range 12 {
			clock.Advance(time.Minute)
			if err := sys.Annotate(snap.ID, "owner", fmt.Sprintf("note %d", i)); err != nil {
				t.Fatal(err)
			}
		}
		return snap.ID
	}
	// The lifecycle side of the view; the resource rendering comes from
	// the in-memory simulators and the render time from the clock,
	// neither of which outlives the process.
	view := func(sys *System, id string) string {
		t.Helper()
		v, err := sys.Widgets().View(id, "owner")
		if err != nil {
			t.Fatal(err)
		}
		v.Resource, v.RenderedAt, v.Late = resource.Rendering{}, time.Time{}, false
		return string(mustMarshal(t, v))
	}

	twin := open(t.TempDir(), 0)
	defer twin.Close()
	want := view(twin, drive(twin))
	for _, phase := range []string{"elaboration", "internalreview"} {
		if !strings.Contains(want, fmt.Sprintf(`"id":%q,`, phase)) {
			t.Fatalf("twin view lacks phase %s: %s", phase, want)
		}
	}
	if n := strings.Count(want, `"visited":true`); n != 2 {
		t.Fatalf("twin view marks %d phases visited, want 2: %s", n, want)
	}

	dir := t.TempDir()
	sys := open(dir, 4)
	id := drive(sys)
	if sum, _ := sys.Summary(id); sum.TruncatedEvents < 4 {
		t.Fatalf("ring truncated only %d of %d events", sum.TruncatedEvents, sum.Events)
	}
	if got := view(sys, id); got != want {
		t.Fatalf("live view differs from the unbounded twin's:\n got %s\nwant %s", got, want)
	}
	if err := sys.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := view(sys, id); got != want {
		t.Fatalf("view after Compact differs from the unbounded twin's:\n got %s\nwant %s", got, want)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = open(dir, 4)
	defer sys.Close()
	if got := view(sys, id); got != want {
		t.Fatalf("view after restart differs from the unbounded twin's:\n got %s\nwant %s", got, want)
	}
}
