package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/serve"
)

// layer names what a span times.
type layer uint8

const (
	layerParse layer = iota // qparse.Parse of the request text
	layerKey                // Node.CanonicalKey of the parsed query
	layerCall               // the public Server call: Query or Translate
	layerExec               // one source-executor call inside the server
)

// span is one timed call. Spans of one request share req; times are
// offsets from the tracer's epoch.
type span struct {
	req        int32
	layer      layer
	miss       bool  // layerCall: the call computed a fresh translation
	n          int32 // tuples selected (layerExec) or returned (layerCall)
	start, end time.Duration
}

// tracer keeps every span of a traced run in memory until the run ends.
// The traced run has one client; only a request's source executors run
// concurrently with each other, so cur names the request in flight.
type tracer struct {
	epoch time.Time
	cur   atomic.Int32
	mu    sync.Mutex
	spans []span
}

// The tracer methods below do nothing on a nil tracer, so the plain send
// path pays only a nil check.

// begin names req as the request in flight.
func (t *tracer) begin(req int) {
	if t != nil {
		t.cur.Store(int32(req))
	}
}

func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// mark records a span of layer l for req from start to now, and returns now.
func (t *tracer) mark(req int, l layer, start time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	end := t.now()
	t.add(span{req: int32(req), layer: l, start: start, end: end})
	return end
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// executor wraps exec so that every source call records a layerExec span.
func (t *tracer) executor(exec serve.SourceExecutor) serve.SourceExecutor {
	return func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		start := t.now()
		out, err := exec(ctx, source, rel, q, ev, ix, acc)
		end := t.now()
		n := int32(0)
		if out != nil {
			n = int32(out.Len())
		}
		t.add(span{req: t.cur.Load(), layer: layerExec, n: n, start: start, end: end})
		return out, err
	}
}

// counters is a snapshot of the program's own counters on one server.
type counters struct {
	serve      serve.Stats
	plan       core.PlanStats
	matches    core.MatchCacheStats
	registered map[string]float64 // qmap_* counter families, summed over labels
}

func snapshot(sys *system) counters {
	c := counters{serve: sys.srv.Stats(), registered: make(map[string]float64)}
	if pl := sys.srv.Plan(); pl != nil {
		c.plan = pl.Stats()
	}
	if mc := sys.srv.MatchCache(); mc != nil {
		c.matches = mc.Stats()
	}
	var buf bytes.Buffer
	if err := sys.reg.WritePrometheus(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	samples, err := obs.ParseExposition(&buf)
	if err != nil {
		panic(fmt.Sprintf("perfbench: the server's own exposition does not parse: %v", err))
	}
	for _, s := range samples {
		c.registered[s.Name] += s.Value
	}
	return c
}

// tracedBlocks is how many alternating traced/untraced blocks the traced
// run splits its requests into, so drift affects both sides alike.
const tracedBlocks = 10

// uncachedMax caps the queries timed through the uncached mediator.
const uncachedMax = 2000

// runTraced measures the per-layer metrics. Two servers are built from the
// same seed: one with a span-recording executor, one plain. Both are warmed
// alike and then replay the same requests from one client in alternating
// blocks; the difference in their time is the tracing overhead. The plain
// server then runs a short open loop for the generator and runtime metrics.
//
// No obs.Tracer is attached to a request context: under one, core bypasses
// the plan and the memo and would measure a different program.
func runTraced(opt options) result {
	ctx := context.Background()
	planted := plantedExecutor(opt.plant)
	inner := planted
	if inner == nil {
		inner = serve.DefaultExecutor
	}
	tr := &tracer{epoch: time.Now()}
	traced := opt.w.build(opt.seed, tr.executor(inner), opt.plant)
	plain := opt.w.build(opt.seed, planted, opt.plant)
	traced.drawInputs(opt.seed)
	plain.drawInputs(opt.seed)
	fmt.Printf("workload %s, seed %d, traced run with 1 client\n", opt.w.name, opt.seed)
	describeStream(traced)

	ct, cp := newChecker(traced), newChecker(plain)
	ct.tr = tr
	warmUp(ctx, cp)
	cold := snapshot(traced)
	warmUp(ctx, ct)
	// Drop the warm-up's executor spans; keep room for the traced requests.
	tr.mu.Lock()
	tr.spans = make([]span, 0, 8*int(opt.seconds)*opt.w.traceOpsPerSec)
	tr.mu.Unlock()

	nOps := int(opt.seconds * float64(opt.w.traceOpsPerSec))
	before := snapshot(traced)
	var tracedTime, plainTime time.Duration
	for b := 0; b < tracedBlocks; b++ {
		lo, hi := b*nOps/tracedBlocks, (b+1)*nOps/tracedBlocks
		runPlain := func() {
			start := time.Now()
			sendRange(ctx, cp, lo, hi)
			plainTime += time.Since(start)
		}
		runTracedBlock := func() {
			start := time.Now()
			sendRange(ctx, ct, lo, hi)
			tracedTime += time.Since(start)
		}
		if b%2 == 0 {
			runPlain()
			runTracedBlock()
		} else {
			runTracedBlock()
			runPlain()
		}
	}
	after := snapshot(traced)
	uncached := timeUncached(traced, nOps)

	// Open loop on the plain server, for the generator's lateness and the
	// runtime's allocation and GC counts per operation.
	var next atomic.Int64
	next.Store(int64(nOps))
	openD := time.Duration(opt.seconds * float64(time.Second) / 4)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	open := openLoop(ctx, cp, &next, opt.rate, int(opt.rate*openD.Seconds()))
	runtime.ReadMemStats(&m1)
	open.sort()
	openOps := float64(len(open.latency))

	refs := newReferences(traced)
	wrongT, firstT := ct.verify(refs)
	wrongP, firstP := cp.verify(refs)
	attempted := ct.attempted + cp.attempted
	failed := ct.failed + cp.failed + wrongT + wrongP
	firstErr := ct.firstErr
	if firstErr == nil {
		firstErr = cp.firstErr
	}
	firstWrong := firstT
	if firstWrong == "" {
		firstWrong = firstP
	}

	metrics, notes := layerMetrics(traced.kind, tr.spans, nOps, cold, before, after)
	metrics["mediator.translate_uncached_us"] = metric{usOf(uncached), "us"}
	notes["mediator.translate_uncached_us"] = fmt.Sprintf("mean over the first %d traced queries, no plan, no matchings cache", min(nOps, uncachedMax))
	metrics["runtime.alloc_kb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / openOps, "KB"}
	metrics["runtime.gc_cycles_per_kop"] = metric{1000 * float64(m1.NumGC-m0.NumGC) / openOps, "count"}
	notes["runtime.alloc_kb_per_op"] = fmt.Sprintf("open loop, %.0f ops at %.0f ops/s", openOps, opt.rate)
	metrics["bench.generator_late_p99_ms"] = metric{msOf(quantile(open.late, 0.99)), "ms"}
	metrics["bench.trace_overhead_pct"] = metric{100 * (float64(tracedTime)/float64(plainTime) - 1), "%"}
	notes["bench.trace_overhead_pct"] = fmt.Sprintf("traced %s vs plain %s over the same %d requests", tracedTime.Round(time.Millisecond), plainTime.Round(time.Millisecond), nOps)

	table("per-layer metrics (traced run, 1 client)", metrics, notes)
	fmt.Printf("  %-36s %14.4f %-6s %d failed + %d wrong of %d attempted\n",
		"error_pct", 100*float64(failed)/float64(attempted), "%", ct.failed+cp.failed, wrongT+wrongP, attempted)
	reportFailures(firstErr, firstWrong)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// sendRange sends requests [lo, hi) from one client and records them.
func sendRange(ctx context.Context, c *checker, lo, hi int) {
	var t tally
	for i := lo; i < hi; i++ {
		t.record(c.send(ctx, i))
	}
	c.add(&t)
}

// timeUncached returns the mean time the uncached reference mediator takes
// to translate the traced requests' queries: what the reuse stack saves.
func timeUncached(sys *system, nOps int) time.Duration {
	ref := sys.newRef()
	n := min(nOps, uncachedMax)
	var total time.Duration
	for i := 0; i < n; i++ {
		q := qparse.MustParse(sys.pool[sys.poolIndex(i)])
		start := time.Now()
		if _, err := ref.Translate(q); err != nil {
			panic(fmt.Sprintf("perfbench: uncached translation of %s: %v", q, err))
		}
		total += time.Since(start)
	}
	return total / time.Duration(n)
}

// layerMetrics turns the traced spans and counter deltas into the
// per-layer metrics. cold, before and after are the traced server's
// counters before the warm-up, before the traced requests and after them.
// Metrics of layers a workload does not reach are 0 and noted as such.
func layerMetrics(kind callKind, spans []span, nOps int, cold, before, after counters) (map[string]metric, map[string]string) {
	type reqTrace struct {
		call, firstExec, lastExec span
		execs                     int
	}
	reqs := make([]reqTrace, nOps)
	var parse, key, execTime, hitTime, missTime time.Duration
	var execs, selected, results, hits, misses int
	for _, s := range spans {
		r := &reqs[s.req]
		d := s.end - s.start
		switch s.layer {
		case layerParse:
			parse += d
		case layerKey:
			key += d
		case layerCall:
			r.call = s
			results += int(s.n)
			if s.miss {
				misses++
				missTime += d
			} else {
				hits++
				hitTime += d
			}
		case layerExec:
			if r.execs == 0 || s.start < r.firstExec.start {
				r.firstExec = s
			}
			if r.execs == 0 || s.end > r.lastExec.end {
				r.lastExec = s
			}
			r.execs++
			execs++
			selected += int(s.n)
			execTime += d
		}
	}
	var pre, execSpan, post, call time.Duration
	for _, r := range reqs {
		call += r.call.end - r.call.start
		if r.execs == 0 {
			pre += r.call.end - r.call.start
			continue
		}
		pre += r.firstExec.start - r.call.start
		execSpan += r.lastExec.end - r.firstExec.start
		post += r.call.end - r.lastExec.end
	}

	ops := float64(nOps)
	perOp := func(d time.Duration) float64 { return usOf(d) / ops }
	mean := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return usOf(d) / float64(n)
	}
	// hitPct is the share of lookups that did not miss; with no lookups
	// nothing missed, and it reads 100.
	hitPct := func(missed, lookups uint64) float64 {
		if lookups == 0 {
			return 100
		}
		return 100 * (1 - float64(missed)/float64(lookups))
	}
	// The per-miss counts come from the traced requests' misses. When they
	// all hit, as on catalog-union whose pool the warm-up translated,
	// they come from the warm-up's misses instead.
	missFrom, missTo, missN := before, after, float64(misses)
	if misses == 0 {
		missFrom, missTo = cold, before
		missN = float64(before.serve.CacheMisses - cold.serve.CacheMisses)
	}
	perMiss := func(name string) float64 {
		if missN == 0 {
			return 0
		}
		return (missTo.registered[name] - missFrom.registered[name]) / missN
	}
	query := kind != callTranslate
	ifQuery := func(v float64) float64 {
		if query {
			return v
		}
		return 0
	}
	ifTranslate := func(v float64) float64 {
		if query {
			return 0
		}
		return v
	}
	s0, s1 := before.serve, after.serve
	lookups := (s1.CacheHits + s1.CacheMisses + s1.CacheShared) - (s0.CacheHits + s0.CacheMisses + s0.CacheShared)
	p0, p1 := before.plan, after.plan
	m0, m1 := before.matches, after.matches
	ms := map[string]metric{
		"qparse.parse_us":               {perOp(parse), "us"},
		"qtree.canonical_key_us":        {perOp(key), "us"},
		"serve.pre_exec_us":             {ifQuery(perOp(pre)), "us"},
		"serve.exec_span_us":            {ifQuery(perOp(execSpan)), "us"},
		"serve.post_exec_us":            {ifQuery(perOp(post)), "us"},
		"engine.exec_us":                {mean(execTime, execs), "us"},
		"engine.selected_tuples_per_op": {float64(selected) / ops, "count"},
		"serve.result_tuples_per_op":    {ifQuery(float64(results) / ops), "count"},
		"serve.translate_hit_us":        {ifTranslate(mean(hitTime, hits)), "us"},
		"serve.translate_miss_us":       {ifTranslate(mean(missTime, misses)), "us"},
		"serve.cache_hit_pct":           {hitPct(s1.CacheMisses-s0.CacheMisses, lookups), "%"},
		"serve.cache_evictions_per_kop": {1000 * float64(s1.CacheEvictions-s0.CacheEvictions) / ops, "count"},
		"core.plan_hit_pct":             {hitPct(p1.Misses-p0.Misses, (p1.Hits+p1.Misses)-(p0.Hits+p0.Misses)), "%"},
		"core.plan_evictions_per_kop":   {1000 * float64(p1.Evictions-p0.Evictions) / ops, "count"},
		"core.matchcache_hit_pct":       {hitPct(m1.Misses-m0.Misses, (m1.Hits+m1.Misses)-(m0.Hits+m0.Misses)), "%"},
		"core.product_terms_per_miss":   {perMiss("qmap_product_terms_total"), "count"},
		"core.scm_calls_per_miss":       {perMiss("qmap_scm_calls_total"), "count"},
		"core.rule_fires_per_miss":      {perMiss("qmap_rule_fires_total"), "count"},
	}
	notes := map[string]string{
		"serve.cache_hit_pct":     fmt.Sprintf("%d of %d lookups missed", misses, lookups),
		"engine.exec_us":          fmt.Sprintf("mean of %d source calls", execs),
		"core.plan_hit_pct":       fmt.Sprintf("%d plan lookups", (p1.Hits+p1.Misses)-(p0.Hits+p0.Misses)),
		"core.matchcache_hit_pct": fmt.Sprintf("%d match-cache lookups", (m1.Hits+m1.Misses)-(m0.Hits+m0.Misses)),
	}
	if query {
		notes["serve.pre_exec_us"] = fmt.Sprintf("self times: pre + exec span + post = %.2f us, the mean traced call time %.2f us",
			perOp(pre)+perOp(execSpan)+perOp(post), perOp(call))
		notes["serve.translate_hit_us"] = "not on this workload's path"
		notes["serve.translate_miss_us"] = "not on this workload's path"
	} else {
		for _, n := range []string{"serve.pre_exec_us", "serve.exec_span_us", "serve.post_exec_us", "engine.exec_us", "serve.result_tuples_per_op", "engine.selected_tuples_per_op"} {
			notes[n] = "not on this workload's path"
		}
		notes["serve.translate_miss_us"] = fmt.Sprintf("%d misses, %d hits", misses, hits)
	}
	if misses == 0 {
		for _, n := range []string{"core.product_terms_per_miss", "core.scm_calls_per_miss", "core.rule_fires_per_miss"} {
			notes[n] = fmt.Sprintf("over the warm-up's %.0f misses; the traced requests all hit", missN)
		}
	}
	return ms, notes
}
