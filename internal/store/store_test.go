package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/vclock"
)

type doc struct {
	Title string `json:"title"`
	Rev   int    `json:"rev"`
}

func openStore(t *testing.T, dir string) (*Store, *Repo[doc]) {
	t.Helper()
	s := Open(dir, Options{})
	repo := MustRepo[doc](s, "docs")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	return s, repo
}

// memStore opens and loads a store on a fresh in-memory file system,
// closed when the test ends. Its journal starts empty, so repositories
// registered after the load start empty too.
func memStore(t testing.TB, opts Options) *Store {
	t.Helper()
	opts.FS = NewMemFS()
	s := Open("/", opts)
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRepoPutGetDelete(t *testing.T) {
	s := memStore(t, Options{})
	repo := MustRepo[doc](s, "docs")
	if err := repo.Put("d1", doc{Title: "Design", Rev: 1}); err != nil {
		t.Fatal(err)
	}
	got, ok := repo.Get("d1")
	if !ok || got.Title != "Design" {
		t.Fatalf("Get = %+v, %t", got, ok)
	}
	if err := repo.Put("d1", doc{Title: "Design", Rev: 2}); err != nil {
		t.Fatal(err)
	}
	got, _ = repo.Get("d1")
	if got.Rev != 2 {
		t.Fatalf("overwrite lost: %+v", got)
	}
	if err := repo.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := repo.Get("d1"); ok {
		t.Fatal("deleted value still present")
	}
	if err := repo.Delete("never-existed"); err != nil {
		t.Fatalf("deleting missing id should be a no-op: %v", err)
	}
}

func TestRepoRejectsEmptyID(t *testing.T) {
	s := memStore(t, Options{})
	repo := MustRepo[doc](s, "docs")
	if err := repo.Put("", doc{}); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestRepoListSorted(t *testing.T) {
	s := memStore(t, Options{})
	repo := MustRepo[doc](s, "docs")
	for _, id := range []string{"c", "a", "b"} {
		if err := repo.Put(id, doc{Title: id}); err != nil {
			t.Fatal(err)
		}
	}
	ids := repo.IDs()
	if len(ids) != 3 || ids[0] != "a" || ids[2] != "c" {
		t.Fatalf("IDs = %v", ids)
	}
	list := repo.List()
	if len(list) != 3 || list[0].Title != "a" {
		t.Fatalf("List = %v", list)
	}
	if repo.Len() != 3 {
		t.Fatalf("Len = %d", repo.Len())
	}
}

func TestDuplicateRepoNameFails(t *testing.T) {
	s := memStore(t, Options{})
	MustRepo[doc](s, "docs")
	if _, err := NewRepo[doc](s, "docs"); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, repo := openStore(t, dir)
	if err := repo.Put("d1", doc{Title: "one", Rev: 1}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Put("d2", doc{Title: "two", Rev: 1}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Delete("d1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, repo2 := openStore(t, dir)
	if _, ok := repo2.Get("d1"); ok {
		t.Fatal("deleted doc resurrected on replay")
	}
	got, ok := repo2.Get("d2")
	if !ok || got.Title != "two" {
		t.Fatalf("replayed doc = %+v, %t", got, ok)
	}
}

func TestTornFinalLineRecovered(t *testing.T) {
	dir := t.TempDir()
	s, repo := openStore(t, dir)
	if err := repo.Put("d1", doc{Title: "keep"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage with no trailing newline.
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"repo":"docs","op":"put","id":"d2","data":{"ti`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, repo2 := openStore(t, dir)
	if _, ok := repo2.Get("d1"); !ok {
		t.Fatal("intact record lost after torn-write recovery")
	}
	if _, ok := repo2.Get("d2"); ok {
		t.Fatal("torn record applied")
	}
	// The store must be writable again after recovery.
	if err := repo2.Put("d3", doc{Title: "after"}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestMidFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	content := `{"seq":1,"repo":"docs","op":"put","id":"a","data":{"title":"x","rev":1}}
this is not json
{"seq":2,"repo":"docs","op":"put","id":"b","data":{"title":"y","rev":1}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := Open(dir, Options{})
	MustRepo[doc](s, "docs")
	err := s.Load()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

func TestReplaySkipsUnknownRepos(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	content := `{"seq":1,"repo":"from-the-future","op":"put","id":"a","data":{}}
{"seq":2,"repo":"docs","op":"put","id":"b","data":{"title":"y","rev":1}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, repo := openStore(t, dir)
	if _, ok := repo.Get("b"); !ok {
		t.Fatal("known repo entry lost while skipping unknown repo")
	}
}

func TestCompactShrinksJournal(t *testing.T) {
	dir := t.TempDir()
	s, repo := openStore(t, dir)
	for i := 0; i < 50; i++ {
		if err := repo.Put("d1", doc{Title: "spam", Rev: i}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, journalName)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction did not shrink journal: %d -> %d", before.Size(), after.Size())
	}
	// State must survive compaction and the store must stay writable.
	got, ok := repo.Get("d1")
	if !ok || got.Rev != 49 {
		t.Fatalf("post-compact value = %+v, %t", got, ok)
	}
	if err := repo.Put("d2", doc{Title: "new"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// And the compacted journal must replay.
	_, repo2 := openStore(t, dir)
	if got, _ := repo2.Get("d1"); got.Rev != 49 {
		t.Fatalf("replay after compact = %+v", got)
	}
	if _, ok := repo2.Get("d2"); !ok {
		t.Fatal("post-compact write lost")
	}
}

func TestMutationBeforeLoadRejected(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	repo := MustRepo[doc](s, "docs")
	if err := repo.Put("d1", doc{}); err == nil || !strings.Contains(err.Error(), "before Load") {
		t.Fatalf("Put before Load = %v, want error", err)
	}
}

func TestLoadTwiceRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	if err := s.Load(); err == nil {
		t.Fatal("second Load accepted")
	}
}

func TestLogAppendAndQueries(t *testing.T) {
	clock := vclock.NewFake(time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC))
	s := memStore(t, Options{Clock: clock})
	log := MustLog(s, "execlog")

	seq1, err := log.Append(LogEntry{Instance: "i1", Kind: "created"})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	seq2, _ := log.Append(LogEntry{Instance: "i1", Kind: "phase-entered", Detail: "elaboration"})
	clock.Advance(time.Hour)
	seq3, _ := log.Append(LogEntry{Instance: "i2", Kind: "created"})

	if seq1 != 1 || seq2 != 2 || seq3 != 3 {
		t.Fatalf("seqs = %d %d %d", seq1, seq2, seq3)
	}
	i1 := entriesOf(log, "i1")
	if len(i1) != 2 || i1[1].Detail != "elaboration" {
		t.Fatalf("entries of i1 = %+v", i1)
	}
	// Append stamps a zero Time from the store clock.
	if want := time.Date(2009, 2, 1, 1, 0, 0, 0, time.UTC); !i1[1].Time.Equal(want) {
		t.Fatalf("entries of i1 [1].Time = %v, want %v", i1[1].Time, want)
	}
	if got := entriesOf(log, "ghost"); len(got) != 0 {
		t.Fatalf("entries of ghost = %+v", got)
	}
	if log.Len() != 3 || len(log.All()) != 3 {
		t.Fatalf("Len/All = %d/%d", log.Len(), len(log.All()))
	}
}

// entriesOf filters the whole log on Instance, in append order.
func entriesOf(log *Log, id string) []LogEntry {
	var out []LogEntry
	for _, e := range log.All() {
		if e.Instance == id {
			out = append(out, e)
		}
	}
	return out
}

func TestLogPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	log := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := log.Append(LogEntry{Instance: "i1", Kind: "tick", Detail: "n=1"}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2 := Open(dir, Options{})
	log2 := MustLog(s2, "execlog")
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 5 {
		t.Fatalf("replayed log len = %d, want 5", log2.Len())
	}
	// Sequence numbering must continue, not restart.
	seq, err := log2.Append(LogEntry{Instance: "i1", Kind: "tick"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("next seq after replay = %d, want 6", seq)
	}
	s2.Close()
}

func TestLogSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s := Open(dir, Options{})
	log := MustLog(s, "execlog")
	if err := s.Load(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := log.Append(LogEntry{Instance: "i1", Kind: "tick"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := Open(dir, Options{})
	log2 := MustLog(s2, "execlog")
	if err := s2.Load(); err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 10 {
		t.Fatalf("log after compaction = %d entries, want all 10 (logs are history)", log2.Len())
	}
}

func TestStoreNowUsesClock(t *testing.T) {
	start := time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC)
	s := memStore(t, Options{Clock: vclock.NewFake(start)})
	if !s.Now().Equal(start) {
		t.Fatalf("Now = %v", s.Now())
	}
}
