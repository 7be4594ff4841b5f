package core

import "repro/internal/obs"

// Option configures a Translator. Options are the only configuration
// surface: a translator is assembled once, fully configured, by
// NewTranslator(spec, opts...), and has no setters.
type Option func(*Translator)

// WithParallelism bounds the worker pool branch mapping and TranslateBatch
// may use; n <= 1 keeps translation fully sequential (the default).
// Parallelism is skipped whenever a tracer or derivation trace is attached —
// span trees and derivation logs are ordered, sequential artifacts.
func WithParallelism(n int) Option {
	return func(t *Translator) {
		if n <= 1 {
			t.workers, t.sem = 0, nil
			return
		}
		t.workers = n
		// n-1 slots: the caller's goroutine is the n-th worker (branches
		// that find the pool full run inline on it).
		t.sem = make(chan struct{}, n-1)
	}
}

// WithMatchCache attaches a shared cross-request matchings cache (nil
// detaches). Results and Stats are identical with or without one — hits
// replay recorded matchings with exact counter compensation — so the cache
// is observable only through its own MatchCacheStats.
func WithMatchCache(c *MatchCache) Option {
	return func(t *Translator) { t.shared = c }
}

// WithPlan attaches a shared cross-request translation plan (nil detaches).
// Results, Stats, metrics, and traces are identical with or without one;
// the plan is observable only through its own PlanStats.
func WithPlan(p *Plan) Option {
	return func(t *Translator) { t.plan = p }
}

// WithTracer attaches a span tracer (nil detaches). Unlike the flat
// derivation Trace of WithTrace, the tracer records the full call tree —
// one span per TDQM node visit, EDNF computation, PSafe partition, SCM
// invocation, and rule matching attempt — with the counters that make the
// paper's e-vs-k cost claim observable per query. A tracer carried in the
// context passed to Do (obs.WithTracer) works the same way per call.
func WithTracer(tr *obs.Tracer) Option {
	return func(t *Translator) { t.tracer = tr }
}

// WithMetrics attaches cumulative translation metrics (nil detaches);
// per-rule fire/suppress counts and algorithm work counters are recorded
// under the spec's name.
func WithMetrics(m *obs.TranslationMetrics) Option {
	return func(t *Translator) { t.metrics = m }
}

// WithTrace attaches a flat derivation-trace collector (qmap -explain).
// Tracing is off by default; it does not change results.
func WithTrace(tr *Trace) Option {
	return func(t *Translator) { t.trace = tr }
}

// WithMemo enables or disables the translation-scoped matching memo. It is
// enabled by default; results are identical either way — the memo replays
// previously derived matchings (with exact Stats compensation) instead of
// re-deriving them.
func WithMemo(on bool) Option {
	return func(t *Translator) { t.memoOff = !on }
}

// WithCompiled enables or disables the compiled rule-dispatch engine
// (rules.CompiledSpec). It is enabled by default; disabling it restores the
// scan-every-rule path, which produces identical matchings at higher cost
// (the equivalence the tests in memo_test.go assert).
func WithCompiled(on bool) Option {
	return func(t *Translator) { t.compiledOff = !on }
}

// WithFullDNFSafety makes the safety machinery use full DNF instead of
// essential DNF (ablation): Procedure EDNF's nullification and
// simplification steps are skipped, so Algorithm PSafe scans every product
// term of the conjuncts' complete DNF — the "brute-force" approach of
// Section 7.1.3 whose cost is ~2^{nk} regardless of the dependency degree.
// The partitions produced are identical (Lemma 3); only the cost differs.
func WithFullDNFSafety(on bool) Option {
	return func(t *Translator) { t.fullDNFSafety = on }
}
