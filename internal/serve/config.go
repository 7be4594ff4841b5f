package serve

import (
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/stream"
)

// CacheConfig groups the server's cache sizing: the canonical translation
// cache, the shared cross-request matchings cache, the shared translation
// plan, and the TinyLFU admission policy guarding the first two. To share
// one matchings cache or plan between several servers, set it on the
// mediator (med.MatchCache, med.Plan) before calling New; New keeps what
// the mediator already carries and sizes only what it builds itself.
type CacheConfig struct {
	// Size bounds the translation cache in entries
	// (DefaultCacheSize if <= 0).
	Size int
	// Admission puts a TinyLFU frequency sketch in front of the translation
	// cache and the shared matchings cache: a full cache only admits a new
	// entry whose estimated access frequency strictly exceeds the eviction
	// victim's, so scan-like traffic (a flood of one-off queries) cannot
	// wash out the hot working set. Rejections are counted in
	// qmap_admission_rejected_total. Admission never changes answers — a
	// rejected insert is still returned to its caller, just not cached.
	Admission bool
	// MatchCacheSize bounds the shared matchings cache New builds when the
	// mediator carries none (core.DefaultMatchCacheSize if 0); a negative
	// size disables cross-request matching reuse entirely.
	MatchCacheSize int
	// PlanSize bounds the shared translation plan New builds when the
	// mediator carries none (core.DefaultPlanSize if 0); a negative size
	// disables cross-request translation-plan reuse entirely.
	PlanSize int
}

// StreamConfig groups the streaming execution pipeline's knobs.
type StreamConfig struct {
	// Enabled switches Query/QueryJoin to the tuple-at-a-time pipeline of
	// internal/stream: per-shard executors over presorted universes, bounded
	// channels, and a deterministic k-way merge. Answers are byte-identical
	// to the materialized path; per-request memory is bounded by
	// Shards × Buffer in-flight tuples instead of result size. Shard
	// executors bypass the Workers pool (the merge needs one tuple from
	// every shard before emitting, so cross-shard admission control could
	// deadlock a request against itself); SourceTimeout applies per shard.
	Enabled bool
	// Shards is the number of shards each source's universe splits into
	// (1 if <= 0).
	Shards int
	// Buffer is the per-shard channel capacity (stream.DefaultBuffer
	// if <= 0).
	Buffer int
	// BuildBudget bounds the materialized build side of a streaming join in
	// tuples (DefaultBuildBudget if <= 0); exceeding it fails the request
	// with ErrBuildBudget.
	BuildBudget int
	// Hook, when non-nil, runs at the start of every shard execution — the
	// per-shard analogue of wrapping Executor, used for fault injection
	// (engine.Injector.ApplyShard) and admission checks. When resilience is
	// on, the server wraps it with breaker admission and bounded retry.
	Hook stream.Hook
}

// ResilienceConfig groups the per-source fault-absorption layer (package
// resilience). The zero value disables everything — the server behaves
// exactly as without the layer. All three mechanisms are semantics-
// preserving on clean runs: answers are byte-identical to the unprotected
// path, because breakers only trip on errors, retries only re-run pure
// failed executions, and hedges duplicate pure executions.
//
// Degraded-answer contract: a source whose breaker is open fails its
// requests fast with resilience.ErrBreakerOpen (wrapped with the source
// name). The request as a whole fails with that typed error — a tripped
// source is never silently omitted from a union or join answer.
type ResilienceConfig struct {
	// Breaker enables a per-source circuit breaker over a sliding
	// error-rate window, on both the materialized fan-out and the streaming
	// shard path.
	Breaker bool
	// BreakerConfig tunes the breakers (zero fields take the package
	// defaults: window 32, ratio 0.5, min samples 8, open 1s, 1 probe).
	BreakerConfig resilience.BreakerConfig
	// Retries is the total number of executions allowed per source request,
	// the first included; <= 1 disables retry. Only typed transient faults
	// (engine.ErrInjected) are retried — evaluation errors and deadlines
	// are not.
	Retries int
	// RetryConfig tunes the full-jitter exponential backoff between
	// attempts (zero fields take the package defaults). Its MaxAttempts is
	// overridden by Retries.
	RetryConfig resilience.RetryConfig
	// Hedge launches a duplicate of a straggling source execution after
	// that source's tracked latency-quantile delay and takes whichever
	// attempt completes first, cancelling the loser. Hedging applies to the
	// materialized fan-out only: a streaming shard's output is an ordered
	// channel feeding the deterministic merge, so duplicating it cannot be
	// raced without forfeiting the determinism contract.
	Hedge bool
	// HedgeConfig tunes the hedge delay policy (zero fields take the
	// package defaults: p95, 1ms floor, 1s cap).
	HedgeConfig resilience.HedgeConfig
	// Seed seeds the retry jitter stream (a fixed default if 0), making
	// backoff schedules replayable in tests.
	Seed int64
}

// enabled reports whether any resilience mechanism is on.
func (r ResilienceConfig) enabled() bool {
	return r.Breaker || r.Retries > 1 || r.Hedge
}

// Config sizes a Server; New is its only constructor. The zero value is a
// working default. Knobs that belong together live in the Cache, Streaming,
// and Resilience groups; the rest are top-level fields.
type Config struct {
	// Cache groups the translation-cache, matchings-cache, translation-plan,
	// and admission-policy knobs.
	Cache CacheConfig
	// Streaming groups the tuple-at-a-time pipeline knobs.
	Streaming StreamConfig
	// Resilience groups the per-source breaker/retry/hedge layer.
	Resilience ResilienceConfig

	// Workers bounds concurrently executing source selections across all
	// requests (2×GOMAXPROCS if <= 0).
	Workers int
	// SourceTimeout bounds each per-source select+filter execution
	// (no timeout if 0).
	SourceTimeout time.Duration
	// Executor overrides the per-source selection phase
	// (DefaultExecutor if nil).
	Executor SourceExecutor
	// Metrics is the registry the server's counters, gauges, and histograms
	// are registered in (a private registry if nil). A registry must back at
	// most one server: the server registers fixed metric names and duplicate
	// registration panics.
	Metrics *obs.Registry
	// Index builds a cost-based access path (engine.Access) per source at
	// construction time — hash, sorted-array, and inverted-token indexes
	// plus per-attribute statistics — and routes both execution paths
	// through selectivity-ranked index probes. Answers are byte-identical
	// (content, order, and errors) to the scan paths; queries the planner
	// cannot probe soundly fall back to scanning automatically.
	Index bool
}
