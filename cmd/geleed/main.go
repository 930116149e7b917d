// Command geleed runs the hosted Gelee lifecycle management service of
// Fig. 2: the REST/SOAP APIs, execution widgets, monitoring cockpit and
// the journal-backed data tier, with the simulated resource plug-ins
// (Google-Docs-like, MediaWiki-like, SVN-like) wired in.
//
// Usage:
//
//	geleed [-addr :8085] [-data DIR] [-auth] [-seed] [-engine journal|memory]
//	       [-sync] [-store-shards N] [-runtime-shards N]
//	       [-segment-max-bytes N] [-snapshot-every N]
//	       [-log-live-window N] [-fold-min-interval D] [-fold-min-garbage R]
//	       [-read-cache-entries N]
//	       [-max-events N] [-invocation-retention D]
//	       [-persist-instances=true|false]
//	       [-max-queue-depth N] [-shed-retry-after D]
//	       [-readonly-after N] [-recover-after N] [-health-probe-interval D]
//	       [-invoke-timeout D] [-invoke-retries N] [-invoke-max-inflight N]
//	       [-breaker-failures N] [-breaker-cooldown D]
//	       [-alert-webhook URL] [-alert-interval D]
//	       [-quarantine-corrupt] [-scrub-interval D] [-scrub-budget-bytes N]
//	       [-max-conns-per-host N] [-max-idle-conns N]
//
// -data enables persistence (empty = in-memory); -auth enforces the
// §IV.D roles via the X-Gelee-User header; -seed loads the LiquidPub
// demo project (quality plan + 35 deliverables) so the cockpit has
// something to show. The engine flags tune the data tier: -sync makes
// both journals fsync once per combined flush (concurrent writers share
// it), and -store-shards sets the repository lock-stripe count.
// -runtime-shards stripes the lifecycle
// runtime's instance table so token moves on different instances
// never contend; -max-events ring-truncates each instance's in-memory
// history (the journal keeps the full record) and -invocation-retention
// ages terminal callback-routing entries out of the invocation index.
// -persist-instances (on by default) writes every lifecycle-instance
// mutation through a dedicated instance journal under DIR/instances
// and replays it on start — sharded across GOMAXPROCS appliers — so a
// restarted geleed recovers every token position, history, execution
// and pending change; the recovered counts are logged at startup.
// -segment-max-bytes (64 MiB by default) rotates each journal's
// active segment at that size; sealed segments are folded into
// snapshots in the background, which bounds restart replay to
// snapshot + tail instead of all history, without ever blocking
// writers. -snapshot-every folds only once that many sealed segments
// accumulate. -log-live-window keeps only that many of the execution
// log's newest entries hot (in RAM and in each snapshot); older
// history is spilled once into immutable CRC-summed archive files
// carried forward by reference, so fold cost stays flat as history
// grows (a negative window is rejected) — cold pages still serve
// reads, streamed from disk via
// GET /api/v1/admin/log?after=&limit=. -fold-min-interval and
// -fold-min-garbage pace the background folder (wall-clock spacing and
// a minimum sealed-garbage ratio) so a trickle of writes never
// re-snapshots an unchanged population. -read-cache-entries bounds the
// per-shard LRU read cache in front of the model repository
// (64 per shard by default, <0 disables): hot models are served as
// shared prepared values, skipping the defensive deep clone on every
// cockpit fetch — hit/miss/evict counters show next to the hot-key
// sketch on the admin store stats. GET /api/v1/admin/store and
// /api/v1/admin/runtime report the resulting engine, rotation/fold,
// archive, replay, runtime and persistence health.
//
// The overload/failure knobs guard the service under stress:
// -max-queue-depth sheds mutating requests with 429 + Retry-After once
// the commit backlog saturates (reads always serve; default 512, tuned
// under the open-loop harness — see BENCH_openloop.json — 0 disables
// shedding); -readonly-after
// flips the node into a degraded read-only mode after that many
// consecutive journal failures, rejecting mutations with 503 until
// -health-probe-interval probes see the disk heal for -recover-after
// writes in a row. Action outcalls run under per-endpoint circuit
// breakers (-breaker-failures / -breaker-cooldown), bounded
// concurrency (-invoke-max-inflight), per-attempt timeouts
// (-invoke-timeout) and idempotent retries (-invoke-retries).
// GET /api/v1/admin/health aggregates all of it for load balancers,
// and threshold alerts stream over /api/v1/admin/alerts/stream or
// POST to -alert-webhook.
//
// The integrity knobs guard the journals against bit rot: every record
// is framed with a CRC-32C envelope and every sealed segment and
// snapshot carries a footer seal (always on; journals written before
// framing still open). -scrub-interval
// (5m by default) re-verifies sealed segments, snapshots and archives
// in the background, at most -scrub-budget-bytes of IO per tick;
// detections fire the journal-corruption alert and show in
// GET /api/v1/admin/health. -quarantine-corrupt makes an open that
// finds corruption move the damaged files aside and serve the
// surviving history read-only (latched until restart) instead of
// refusing to start; repair offline with geleectl fsck. The outcall
// pool knobs (-max-conns-per-host, -max-idle-conns) bound the HTTP
// connection pool behind REST/SOAP action dispatch.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/liquidpub/gelee"
	"github.com/liquidpub/gelee/internal/scenario"
)

// defaultMaxQueueDepth is the tuned admission watermark (the open-loop
// harness's tuning sweep, frozen in BENCH_openloop.json): at depths
// past ~512 the commit backlog only adds queueing delay to every acked
// mutation without improving throughput, while shedding at 512 keeps
// acked p99 bounded under 2x-capacity overload. Resume stays at the
// watermark/2 hysteresis built into the admission gate. Set
// -max-queue-depth 0 to disable shedding (the pre-tuning behavior).
const defaultMaxQueueDepth = 512

func main() {
	if err := run(); err != nil {
		log.Fatalf("geleed: %v", err)
	}
}

// run serves until the listener fails. Every return after the system
// opens closes it first, so the journals are flushed and released
// whatever the exit path.
func run() (err error) {
	addr := flag.String("addr", ":8085", "listen address")
	dataDir := flag.String("data", "", "data directory (empty = in-memory)")
	auth := flag.Bool("auth", false, "enforce roles via the X-Gelee-User header")
	seed := flag.Bool("seed", false, "load the LiquidPub demo project")
	engine := flag.String("engine", "", "storage engine: journal|memory (default: journal when -data is set)")
	sync := flag.Bool("sync", false, "fsync once per combined journal flush; concurrent writers share the fsync")
	shards := flag.Int("store-shards", 0, "repository lock-stripe count (0 = default)")
	rtShards := flag.Int("runtime-shards", 0, "runtime instance-table lock-stripe count (0 = default)")
	segmentMax := flag.Int64("segment-max-bytes", 64<<20, "rotate journal segments past this size; folded into snapshots in the background (0 = no rotation)")
	snapshotEvery := flag.Int("snapshot-every", 0, "fold once this many sealed segments accumulate (0 = every rotation)")
	logWindow := flag.Int("log-live-window", 0, "execution-log entries kept hot; older history archived by reference (0 = default)")
	foldMinInterval := flag.Duration("fold-min-interval", 15*time.Second, "minimum wall-clock spacing between background snapshot folds (0 = none)")
	foldMinGarbage := flag.Float64("fold-min-garbage", 0.25, "minimum sealed-garbage ratio before a background fold runs (0 = none)")
	readCache := flag.Int("read-cache-entries", 0, "per-shard LRU entries for the model read cache (0 = default 64, <0 = disable)")
	maxEvents := flag.Int("max-events", 0, "max in-memory events per instance, ring-truncated (0 = unbounded)")
	invRetention := flag.Duration("invocation-retention", 0, "grace window before terminal invocation-index entries are GC'd (0 = keep forever)")
	persist := flag.Bool("persist-instances", true, "journal lifecycle-instance mutations and replay them on start")
	maxQueue := flag.Int("max-queue-depth", defaultMaxQueueDepth, "shed mutating requests with 429 once the commit backlog passes this depth (0 = no shedding)")
	shedRetry := flag.Duration("shed-retry-after", 0, "Retry-After hint attached to shed responses (0 = default)")
	readonlyAfter := flag.Int("readonly-after", 0, "consecutive journal append failures before entering read-only mode (0 = default)")
	recoverAfter := flag.Int("recover-after", 0, "consecutive successful appends/probes before leaving a degraded state (0 = default)")
	probeInterval := flag.Duration("health-probe-interval", time.Second, "how often a degraded node probes the journal to detect recovery (0 = never)")
	invokeTimeout := flag.Duration("invoke-timeout", 0, "per-attempt timeout for REST/SOAP action outcalls (0 = default 30s)")
	invokeRetries := flag.Int("invoke-retries", 0, "attempts per idempotent action send, with jittered backoff (0 = default)")
	invokeInflight := flag.Int("invoke-max-inflight", 0, "max concurrent outcalls per action endpoint (0 = default, <0 = unlimited)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive outcall failures before an endpoint's circuit opens (0 = default, <0 = disable breakers)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open circuit waits before trying a half-open probe (0 = default)")
	alertWebhook := flag.String("alert-webhook", "", "URL POSTed a JSON body when a health threshold fires or resolves")
	alertInterval := flag.Duration("alert-interval", 0, "threshold evaluation period for the alert watcher (0 = only when -alert-webhook is set)")
	quarantine := flag.Bool("quarantine-corrupt", false, "on corrupt journal files at open: quarantine them and serve the surviving history read-only instead of failing")
	scrubInterval := flag.Duration("scrub-interval", 5*time.Minute, "background re-verification cadence for sealed segments, snapshots and archives (0 = never)")
	scrubBudget := flag.Int64("scrub-budget-bytes", 0, "max bytes one scrub tick may read (0 = default 8 MiB)")
	maxConnsPerHost := flag.Int("max-conns-per-host", 0, "max outcall connections per action endpoint host (0 = default 128, <0 = unlimited)")
	maxIdleConns := flag.Int("max-idle-conns", 0, "max idle outcall connections across all hosts (0 = default 256, <0 = no keep-alive)")
	flag.Parse()

	sys, err := gelee.New(gelee.Options{
		DataDir:             *dataDir,
		Engine:              *engine,
		SyncJournal:         *sync,
		StoreShards:         *shards,
		SegmentMaxBytes:     *segmentMax,
		SnapshotEvery:       *snapshotEvery,
		LogLiveWindow:       *logWindow,
		FoldMinInterval:     *foldMinInterval,
		FoldMinGarbage:      *foldMinGarbage,
		ReadCacheEntries:    *readCache,
		RuntimeShards:       *rtShards,
		MaxEventsInMemory:   *maxEvents,
		InvocationRetention: *invRetention,
		PersistInstances:    *persist,
		Auth:                *auth,
		EmbeddedPlugins:     true,
		Integrity: gelee.IntegrityOptions{
			Quarantine:        *quarantine,
			ScrubInterval:     *scrubInterval,
			ScrubBytesPerTick: *scrubBudget,
		},
		Resilience: gelee.ResilienceOptions{
			MaxQueueDepth:     *maxQueue,
			ShedRetryAfter:    *shedRetry,
			ReadOnlyAfter:     *readonlyAfter,
			RecoverAfter:      *recoverAfter,
			ProbeInterval:     *probeInterval,
			InvokeTimeout:     *invokeTimeout,
			InvokeAttempts:    *invokeRetries,
			InvokeMaxInFlight: *invokeInflight,
			BreakerFailures:   *breakerFailures,
			BreakerCooldown:   *breakerCooldown,
			AlertWebhook:      *alertWebhook,
			AlertInterval:     *alertInterval,
			MaxConnsPerHost:   *maxConnsPerHost,
			MaxIdleConns:      *maxIdleConns,
		},
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sys.Close()) }()

	if *persist {
		rec := sys.RecoveryStats()
		log.Printf("instance recovery: %d instances, %d events, %d executions from %d journal records (%v)",
			rec.Instances, rec.Events, rec.Executions, rec.Records, rec.Elapsed.Round(time.Microsecond))
		if inst := sys.StoreStats().Instances; inst != nil {
			log.Printf("instance journal: replayed %d snapshot + %d tail records (%d folded skipped) over %d tail segments",
				inst.Replay.SnapshotEntries, inst.Replay.TailEntries, inst.Replay.SkippedEntries, inst.Replay.Segments)
		}
	}

	if *seed {
		// A recovered population means the demo was already seeded in a
		// previous life; re-seeding would duplicate all 35 deliverables.
		if n := sys.InstanceCount(); n > 0 {
			log.Printf("skipping seed: %d instances recovered from the journal", n)
		} else {
			if err := seedLiquidPub(sys); err != nil {
				return fmt.Errorf("seed: %w", err)
			}
			// Count sums shard sizes — no per-instance deep copies just
			// to log a number.
			log.Printf("seeded LiquidPub demo: %d instances", sys.InstanceCount())
		}
	}

	stats := sys.StoreStats()
	log.Printf("gelee lifecycle manager listening on %s (auth=%t, data=%q, engine=%s, store-shards=%d, runtime-shards=%d)",
		*addr, *auth, *dataDir, stats.Engine.Engine, stats.Shards, sys.RuntimeStats().Shards)
	if n := sys.ReadCacheEntriesPerShard(); n > 0 {
		log.Printf("read cache: models LRU, %d entries/shard x %d shards (max %d cached values); admission watermark %d",
			n, stats.Shards, n*stats.Shards, *maxQueue)
	} else {
		log.Printf("read cache: disabled; admission watermark %d", *maxQueue)
	}
	log.Printf("try: curl %s", summaryURL(*addr))
	return http.ListenAndServe(*addr, sys.HTTPHandler())
}

// summaryURL is the cockpit summary URL on the listen address addr:
// its host, or localhost when addr names none (":8085"). An addr that
// does not parse is used as given; the listener then reports it.
func summaryURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr + "/api/v1/monitor/summary"
	}
	if host == "" {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port) + "/api/v1/monitor/summary"
}

// seedLiquidPub creates the paper's §II.A project: the quality plan and
// its 35 deliverables spread over the simulated managing applications,
// each advanced to a different lifecycle stage.
func seedLiquidPub(sys *gelee.System) error {
	model, deliverables := scenario.LiquidPub()
	if err := sys.DefineModel("", model); err != nil {
		return err
	}
	if err := sys.SaveTemplate("", model); err != nil {
		return err
	}
	for i, d := range deliverables {
		if err := createResource(sys, d); err != nil {
			return err
		}
		snap, err := sys.Instantiate(model.URI, d.Ref, d.Owner, map[string]map[string]string{
			"http://www.liquidpub.org/a/notify": {"reviewers": d.Reviewers},
			"http://www.liquidpub.org/a/post":   {"site": "project.liquidpub.org"},
		})
		if err != nil {
			return err
		}
		// Spread instances across the lifecycle for an interesting
		// cockpit view.
		steps := i % len(scenario.HappyPath)
		for j := 0; j <= steps; j++ {
			if _, err := sys.Advance(snap.ID, scenario.HappyPath[j], d.Owner, gelee.AdvanceOptions{}); err != nil {
				return fmt.Errorf("advance %s: %w", d.ID, err)
			}
		}
	}
	return nil
}

func createResource(sys *gelee.System, d scenario.Deliverable) error {
	id := lastSegment(d.Ref.URI)
	switch d.Ref.Type {
	case "mediawiki":
		_, err := sys.Sims.Wiki.CreatePage(id, d.Owner, "= "+d.Title+" =")
		return err
	case "gdoc":
		_, err := sys.Sims.GDocs.Create(id, d.Title, d.Owner, "Draft of "+d.Title)
		return err
	case "svn":
		if _, err := sys.Sims.SVN.CreateRepo(id); err != nil {
			return err
		}
		_, err := sys.Sims.SVN.Commit(id, d.Owner, "import "+d.Title)
		return err
	}
	return fmt.Errorf("unknown resource type %q", d.Ref.Type)
}

func lastSegment(uri string) string {
	uri = strings.TrimRight(uri, "/")
	if i := strings.LastIndexAny(uri, "/:"); i >= 0 {
		return uri[i+1:]
	}
	return uri
}
