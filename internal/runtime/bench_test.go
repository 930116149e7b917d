package runtime

// Benchmarks for the copy-free read path: Advance result modes over
// instances with realistic (~128-event) histories, the paged event
// accessor and the cockpit's filtered population page. The other
// cockpit-side benchmarks live in internal/monitor.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/store"
)

// benchPopulation builds a runtime with n instances, each carrying
// ~events history entries (created + phase-entered + annotations).
func benchPopulation(b *testing.B, n, events int, mutate func(*Config)) (*Runtime, []string) {
	b.Helper()
	cfg := Config{Registry: actionlib.NewRegistry(), SyncActions: true}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	model := stressModel()
	ids := make([]string, n)
	for i := range ids {
		ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "stress"}
		snap, err := rt.Instantiate(model, ref, "owner", nil)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = snap.ID
		if _, err := rt.Advance(snap.ID, "draft", "owner", AdvanceOptions{}); err != nil {
			b.Fatal(err)
		}
		for e := 2; e < events; e++ {
			if err := rt.Annotate(snap.ID, "owner", "note"); err != nil {
				b.Fatal(err)
			}
		}
	}
	return rt, ids
}

// BenchmarkAdvance compares the two Advance result modes over a
// population whose instances carry 128-event histories: the snapshot
// mode deep-copies the whole history per move, the summary mode copies
// only the events the move appended. Moves round-robin over 512
// instances so histories stay ≈128 events across the run.
func BenchmarkAdvance(b *testing.B) {
	const population, events = 512, 128
	modes := []struct {
		name string
		move func(rt *Runtime, id string) error
	}{
		{"snapshot", func(rt *Runtime, id string) error {
			_, err := rt.Advance(id, "draft", "owner", AdvanceOptions{})
			return err
		}},
		{"summary", func(rt *Runtime, id string) error {
			_, err := rt.AdvanceSummary(id, "draft", "owner", AdvanceOptions{})
			return err
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			rt, ids := benchPopulation(b, population, events, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := mode.move(rt, ids[i%population]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventsPage measures the paged history read against the full
// snapshot a timeline endpoint used to need.
func BenchmarkEventsPage(b *testing.B) {
	rt, ids := benchPopulation(b, 16, 128, nil)
	b.Run("page-32", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			page, ok := rt.Events(ids[i%len(ids)], 64, 32)
			if !ok || len(page.Events) != 32 {
				b.Fatalf("page = %d events", len(page.Events))
			}
		}
	})
	b.Run("snapshot-full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, ok := rt.Instance(ids[i%len(ids)])
			if !ok || len(snap.Events) == 0 {
				b.Fatal("snapshot missing")
			}
		}
	})
}

// BenchmarkPersistAdvance measures the write-through cost of the
// durability seam: token moves with no journal, with the record codec
// feeding an in-memory sink (encode-only), and with the real on-disk
// flush-combining instance journal.
func BenchmarkPersistAdvance(b *testing.B) {
	modes := []struct {
		name string
		sink func(b *testing.B) Journal
	}{
		{"ram", func(*testing.B) Journal { return nil }},
		{"encode-only", func(*testing.B) Journal {
			return JournalFunc(func(rec *JournalRecord) error {
				_, err := rec.Encode()
				return err
			})
		}},
		{"journal", func(b *testing.B) Journal {
			coll, err := store.OpenInstances(b.TempDir(), store.InstancesOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := coll.Replay(func(string, []byte) error { return nil }); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { coll.Close() })
			return storeSink{coll}
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			sink := mode.sink(b)
			rt, ids := benchPopulation(b, 64, 2, func(cfg *Config) { cfg.Journal = sink })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.AdvanceSummary(ids[i%len(ids)], "draft", "owner", AdvanceOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJournalReplay measures recovery throughput: rebuilding a
// runtime from a captured journal (records already in memory, so this
// is decode+apply, the CPU side of a restart).
func BenchmarkJournalReplay(b *testing.B) {
	sink := &captureSink{}
	rt, ids := benchPopulation(b, 64, 16, func(cfg *Config) { cfg.Journal = sink })
	for _, id := range ids {
		if _, err := rt.AdvanceSummary(id, "draft", "owner", AdvanceOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	records := int64(len(sink.recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt2, err := New(Config{Registry: actionlib.NewRegistry(), SyncActions: true})
		if err != nil {
			b.Fatal(err)
		}
		rec := sink.replayInto(b, rt2)
		if rec.Records != records {
			b.Fatalf("replayed %d records, want %d", rec.Records, records)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N), "records")
}

// BenchmarkQuerySummariesFiltered measures the cockpit's filtered page,
// QuerySummaries(model=M, state=active, limit=50), over 10k instances
// spread across 2048 models by Zipf(1.1), each 0-3 steps along its
// lifecycle (3 = completed), with M drawn by the same law — the
// population of the cockpit benchmark workload. The runtime is
// replayed from its snapshot records in random order, so the model
// index entries start in the order such a restart leaves them.
func BenchmarkQuerySummariesFiltered(b *testing.B) {
	const population, models, limit = 10000, 2048, 50
	rng := rand.New(rand.NewPCG(1, 2))
	zipf := rand.NewZipf(rng, 1.1, 1, models-1)
	ms := make([]*core.Model, models)
	for i := range ms {
		ms[i] = popModel()
		ms[i].URI = fmt.Sprintf("urn:bench:model-%04d", i)
	}
	rt := popRuntime(b, Config{SyncActions: true})
	steps := []string{"draft", "work", "done"}
	for i := 0; i < population; i++ {
		snap, err := rt.Instantiate(ms[zipf.Uint64()], popRef(i), "owner", nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, to := range steps[:rng.IntN(len(steps)+1)] {
			if _, err := rt.AdvanceSummary(snap.ID, to, "owner", AdvanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	rt = replaySnapshotRecs(b, Config{SyncActions: true}, shuffled(emitSnapshots(b, rt), 1))
	picks := make([]string, 4096)
	for i := range picks {
		picks[i] = ms[zipf.Uint64()].URI
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page := rt.QuerySummaries(Filter{ModelURI: picks[i%len(picks)], State: StateActive}, 0, limit)
		if len(page.Summaries) > limit {
			b.Fatalf("page of %d items, limit %d", len(page.Summaries), limit)
		}
	}
}
