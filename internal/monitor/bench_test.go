package monitor

// Benchmarks for the summary-backed cockpit over a reference
// population of 2048 instances × 128 events each, built once and
// shared. BenchmarkMonitorSummarize instead builds populations of
// growing size, since its claim is that the cost does not grow with N.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/liquidpub/gelee/internal/actionlib"
	"github.com/liquidpub/gelee/internal/core"
	"github.com/liquidpub/gelee/internal/resource"
	"github.com/liquidpub/gelee/internal/runtime"
	"github.com/liquidpub/gelee/internal/scenario"
	"github.com/liquidpub/gelee/internal/vclock"
)

const (
	benchPopulation = 2048
	benchEvents     = 128
)

var benchOnce struct {
	sync.Once
	rt  *runtime.Runtime
	mon *Monitor
	err error
}

// benchEnv lazily builds the shared 2048×128 population: every instance
// advanced into elaboration (due day 30) and annotated up to 128 events,
// with the clock at day 41 so the Late view has real work to do.
func benchEnv(b *testing.B) (*runtime.Runtime, *Monitor) {
	b.Helper()
	benchOnce.Do(func() {
		clock := vclock.NewFake(time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC))
		rt, err := runtime.New(runtime.Config{
			Registry:    actionlib.NewRegistry(),
			Invoker:     runtime.InvokerFunc(func(context.Context, actionlib.Invocation) error { return nil }),
			Clock:       clock,
			SyncActions: true,
		})
		if err != nil {
			benchOnce.err = err
			return
		}
		model := scenario.QualityPlan()
		for i := 0; i < benchPopulation; i++ {
			ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "mediawiki"}
			snap, err := rt.Instantiate(model, ref, "owner", nil)
			if err != nil {
				benchOnce.err = err
				return
			}
			if _, err := rt.Advance(snap.ID, "elaboration", "owner", runtime.AdvanceOptions{}); err != nil {
				benchOnce.err = err
				return
			}
			for e := 2; e < benchEvents; e++ {
				if err := rt.Annotate(snap.ID, "owner", "note"); err != nil {
					benchOnce.err = err
					return
				}
			}
		}
		clock.Advance(41 * 24 * time.Hour)
		benchOnce.rt = rt
		benchOnce.mon = New(rt, clock)
	})
	if benchOnce.err != nil {
		b.Fatal(benchOnce.err)
	}
	return benchOnce.rt, benchOnce.mon
}

// summarizeModels is the model count of the Summarize populations:
// fixed, so growing the population grows only N, not the by_model
// breakdown.
const summarizeModels = 64

// summarizeCache holds the most recent Summarize population; sub-
// benchmarks run one size at a time, so one slot avoids rebuilding a
// population for every b.N round without keeping every size alive.
var summarizeCache struct {
	n   int
	mon *Monitor
}

// summarizeEnv builds n instances spread round-robin over
// summarizeModels copies of the quality plan, each advanced a few
// phases along the happy path, with the clock moved past the early
// deadlines so lateness has work. Histories stay short: Summarize's
// cost must not depend on them either way.
func summarizeEnv(b *testing.B, n int) *Monitor {
	b.Helper()
	if summarizeCache.n == n {
		return summarizeCache.mon
	}
	summarizeCache.n, summarizeCache.mon = 0, nil
	clock := vclock.NewFake(time.Date(2009, 2, 1, 0, 0, 0, 0, time.UTC))
	rt, err := runtime.New(runtime.Config{
		Registry:    actionlib.NewRegistry(),
		Clock:       clock,
		SyncActions: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	models := make([]*core.Model, summarizeModels)
	for i := range models {
		models[i] = scenario.QualityPlan()
		models[i].URI = fmt.Sprintf("urn:bench:model-%d", i)
		models[i].Name = fmt.Sprintf("Bench model %d", i)
	}
	for i := 0; i < n; i++ {
		ref := resource.Ref{URI: fmt.Sprintf("urn:bench:res-%d", i), Type: "mediawiki"}
		snap, err := rt.Instantiate(models[i%summarizeModels], ref, "owner", nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, to := range scenario.HappyPath[:i%4] {
			if _, err := rt.AdvanceSummary(snap.ID, to, "owner", runtime.AdvanceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	clock.Advance(45 * 24 * time.Hour)
	mon := New(rt, clock)
	// The first read sweeps every deadline the clock jump passed into
	// the late count; the benchmark measures the steady state after it.
	mon.Summarize()
	summarizeCache.n, summarizeCache.mon = n, mon
	return mon
}

// BenchmarkMonitorSummarize measures the cockpit summary at 2k, 10k and
// 100k instances. Summarize reads the runtime's maintained aggregate,
// so the cost follows the distinct phases and models, not N: the
// figures should stay flat across sizes.
func BenchmarkMonitorSummarize(b *testing.B) {
	for _, n := range []int{2000, 10000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			mon := summarizeEnv(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sum := mon.Summarize(); sum.Total != n {
					b.Fatalf("total = %d", sum.Total)
				}
			}
		})
	}
}

func BenchmarkMonitorLate(b *testing.B) {
	_, mon := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		late := mon.Late()
		if len(late) != benchPopulation {
			b.Fatalf("late = %d", len(late))
		}
	}
}

func BenchmarkMonitorOverview(b *testing.B) {
	_, mon := benchEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := mon.Overview()
		if len(rows) != benchPopulation {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}
