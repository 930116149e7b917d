package main

import (
	"fmt"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/resource"
)

// geleedOptions are the options geleed builds from its flag defaults
// for `geleed -data dir`. Prep writes the data directory through them
// and the traced host serves through them, so both match what the
// end-to-end run measures. Keep in step with cmd/geleed: a traced run
// fails when the settings the traced host reports differ from geleed's
// (see settings).
func geleedOptions(dir string) gelee.Options {
	return gelee.Options{
		DataDir:          dir,
		SegmentMaxBytes:  64 << 20,
		FoldMinInterval:  15 * time.Second,
		FoldMinGarbage:   0.25,
		PersistInstances: true,
		EmbeddedPlugins:  true,
		Integrity:        gelee.IntegrityOptions{ScrubInterval: 5 * time.Minute},
		Resilience: gelee.ResilienceOptions{
			MaxQueueDepth: 512,
			ProbeInterval: time.Second,
		},
	}
}

// flushPolicy states how the measured configuration makes writes
// durable.
const flushPolicy = "write(2) per group-commit batch, no fsync (geleed default, no -sync)"

// prepare writes p into a fresh data directory: the models, then every
// instance in plan order walked through its prep steps, then a compaction
// so restart replays snapshots rather than the prep history. It returns
// the instance ids in creation order.
func prepare(dir string, p *plan) ([]string, error) {
	opts := geleedOptions(dir)
	opts.SyncActions = true // dispatch inline, so prep is deterministic
	sys, err := gelee.New(opts)
	if err != nil {
		return nil, fmt.Errorf("prep: open: %w", err)
	}
	ids, err := populate(sys, p)
	if err == nil {
		err = sys.Compact()
	}
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	return ids, nil
}

func populate(sys *gelee.System, p *plan) ([]string, error) {
	for i, uri := range p.modelURIs {
		if err := sys.DefineModel("", modelFor(uri, i)); err != nil {
			return nil, fmt.Errorf("define %s: %w", uri, err)
		}
	}
	ids := make([]string, len(p.inst))
	for i, in := range p.inst {
		ref := resource.Ref{URI: fmt.Sprintf("http://bench.example/prep/%d", i), Type: resourceType}
		snap, err := sys.Instantiate(p.modelURIs[in.model], ref, "prep", instanceBindings)
		if err != nil {
			return nil, fmt.Errorf("instantiate %d: %w", i, err)
		}
		ids[i] = snap.ID
		for _, to := range in.steps {
			if _, err := sys.AdvanceSummary(snap.ID, to, "prep", gelee.AdvanceOptions{}); err != nil {
				return nil, fmt.Errorf("advance %s to %s: %w", snap.ID, to, err)
			}
		}
	}
	return ids, nil
}
