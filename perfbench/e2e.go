package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/qparse"
	"repro/internal/qtree"
	"repro/internal/serve"
)

const (
	// A run builds its system at least minSetups times and until it has
	// spent setupBudget building, at most maxSetups times; setup_s is the
	// median. The last build serves the run.
	minSetups, maxSetups = 9, 2001
	setupBudget          = time.Second
	// closedShare is the share of --seconds spent in the closed loop; the
	// open loop gets the rest, since its rate is low.
	closedShare = 1.0 / 3
	// rounds is how many times a run alternates its closed and open loops.
	rounds = 4
)

// setUp builds the workload's system repeatedly and returns the last build
// with the median build time and the number of builds. Only the build is
// timed; the request stream is drawn for the last build afterwards.
func setUp(opt options, exec serve.SourceExecutor) (*system, time.Duration, int) {
	var times []time.Duration
	var sys *system
	var spent time.Duration
	for len(times) < minSetups || (spent < setupBudget && len(times) < maxSetups) {
		sys = nil
		runtime.GC()
		start := time.Now()
		sys = opt.w.build(opt.seed, exec, opt.plant)
		d := time.Since(start)
		times = append(times, d)
		spent += d
	}
	sortDurations(times)
	start := time.Now()
	sys.drawInputs(opt.seed)
	fmt.Printf("request stream drawn in %s, outside setup_s\n", time.Since(start).Round(time.Microsecond))
	return sys, times[len(times)/2], len(times)
}

// blockMedian splits lat, in request order, into consecutive blocks of
// block requests and returns the median of the blocks' medians.
func blockMedian(lat []time.Duration, block int) time.Duration {
	var meds []time.Duration
	for i := 0; i+block <= len(lat); i += block {
		b := append([]time.Duration(nil), lat[i:i+block]...)
		sortDurations(b)
		meds = append(meds, quantile(b, 0.5))
	}
	sortDurations(meds)
	return quantile(meds, 0.5)
}

// alignNext advances next to the next multiple of block.
func alignNext(next *atomic.Int64, block int) {
	b := int64(block)
	next.Store((next.Load() + b - 1) / b * b)
}

// plantedExecutor is the server executor for a run: the default one, or the
// drop-tuple defect.
func plantedExecutor(plant string) serve.SourceExecutor {
	if plant == plantDrop {
		return dropTuple(serve.DefaultExecutor)
	}
	return nil
}

// streamHash fingerprints the generated request stream: the pool texts and
// the request → pool mapping. The same seed must give the same hash.
func streamHash(sys *system) uint64 {
	h := fnv.New64a()
	for _, q := range sys.pool {
		h.Write([]byte(q))
		h.Write([]byte{0})
	}
	var b [4]byte
	for _, p := range sys.seq {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return h.Sum64()
}

// describeStream prints the request stream's hash and its mix: distinct
// texts, and the share of sent requests that are a single constraint.
func describeStream(sys *system) {
	distinct := make(map[string]bool, len(sys.pool))
	leaf := make([]bool, len(sys.pool))
	for p, text := range sys.pool {
		distinct[text] = true
		leaf[p] = qparse.MustParse(text).Kind == qtree.KindLeaf
	}
	// translate-fresh sends its stream once through; catalog-union wraps
	// around its own.
	sent := sys.seq
	if sys.kind == callTranslate {
		sent = sys.seq[sys.start:]
	}
	leaves := 0
	for _, p := range sent {
		if leaf[p] {
			leaves++
		}
	}
	fmt.Printf("request stream fnv64a %016x: %d pool texts, %d distinct; %d warm-up requests; %.1f %% of the stream is single-constraint queries\n",
		streamHash(sys), len(sys.pool), len(distinct), sys.warm, 100*float64(leaves)/float64(len(sent)))
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(opt options) result {
	ctx := context.Background()
	sys, setup, builds := setUp(opt, plantedExecutor(opt.plant))
	fmt.Printf("workload %s, seed %d, %d clients, open-loop rate %.0f ops/s\n",
		opt.w.name, opt.seed, clients, opt.rate)
	describeStream(sys)

	c := newChecker(sys)
	warmUp(ctx, c)
	// The closed and open loops alternate in rounds, so that each metric
	// samples the whole run rather than one stretch of it.
	var next atomic.Int64
	total := time.Duration(opt.seconds * float64(time.Second))
	closedD := time.Duration(float64(total) * closedShare / rounds)
	// The open loop sends whole latency blocks, as many as fit its share
	// of the run, spread over the rounds.
	block := sys.block()
	blocks := max(rounds, int(opt.rate*(total-rounds*closedD).Seconds()/float64(block)+0.5))
	var rates []float64
	var open openResult
	for r := 0; r < rounds; r++ {
		// Each phase starts on a block boundary, so that on catalog-union
		// each block sends every pool query once.
		alignNext(&next, block)
		rates = append(rates, closedLoop(ctx, c, &next, closedD, block)...)
		alignNext(&next, block)
		n := (blocks*(r+1)/rounds - blocks*r/rounds) * block
		o := openLoop(ctx, c, &next, opt.rate, n)
		open.latency = append(open.latency, o.latency...)
		open.late = append(open.late, o.late...)
	}
	// Both metrics are medians over blocks: each block is a whole pass
	// over the pool on catalog-union, so a block's figure does not
	// depend on which queries it drew, and the median discards the blocks
	// a shared host slowed down.
	p50 := blockMedian(open.latency, block)
	open.sort()
	sort.Float64s(rates)
	qps := rates[len(rates)/2]
	wrong, firstWrong := c.verify(newReferences(sys))

	attempted, failed := c.attempted, c.failed
	firstErr := c.firstErr
	heap := liveHeap(sys)

	p99 := quantile(open.latency, 0.99)
	beyond := len(open.latency) - sort.Search(len(open.latency), func(i int) bool { return open.latency[i] > p99 })
	errPct := 100 * float64(failed+wrong) / float64(attempted)
	metrics := map[string]metric{
		"setup_s":        {secs(setup), "s"},
		"throughput_qps": {qps, "ops/s"},
		"latency_p50_ms": {msOf(p50), "ms"},
		"heap_mb":        {float64(heap) / 1e6, "MB"},
	}
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d builds", builds),
		"throughput_qps": fmt.Sprintf("closed loop, %d clients, %d × %s: median of %d blocks of %d requests", clients, rounds, closedD.Round(time.Millisecond), len(rates), block),
		"latency_p50_ms": fmt.Sprintf("open loop at %.0f ops/s, from due time: median of the medians of %d blocks of %d requests; pooled median %s", opt.rate, len(open.latency)/block, block, quantile(open.latency, 0.5).Round(time.Microsecond)),
		"heap_mb":        "live heap after the run and a forced GC",
	}
	table("end-to-end metrics", metrics, notes)
	// The open-loop tail is printed, not reported: on a shared host its
	// run-to-run spread is far wider than any bound BENCHMARK.json allows.
	fmt.Printf("  open-loop latency p90 %s, p99 %s (%d of %d samples beyond); generator lateness p50 %s, p99 %s\n",
		quantile(open.latency, 0.90), quantile(open.latency, 0.99), beyond, len(open.latency),
		quantile(open.late, 0.50), quantile(open.late, 0.99))
	fmt.Printf("  %-36s %14.4f %-6s %d failed + %d wrong of %d attempted (not a BENCHMARK.json metric: it must stay 0)\n",
		"error_pct", errPct, "%", failed, wrong, attempted)
	reportFailures(firstErr, firstWrong)
	return result{
		Correct:   failed == 0 && wrong == 0,
		Attempted: attempted,
		Failed:    failed + wrong,
		Metrics:   metrics,
	}
}

// reportFailures prints the first request error and the first wrong answer.
func reportFailures(firstErr error, firstWrong string) {
	if firstErr != nil {
		fmt.Printf("first failed request: %v\n", firstErr)
	}
	if firstWrong != "" {
		fmt.Printf("first wrong answer: %s\n", firstWrong)
	}
}

// liveHeap drops the benchmark's own inputs from sys, collects garbage and
// returns the live heap: the server's universes, indexes and warmed caches.
func liveHeap(sys *system) uint64 {
	sys.pool, sys.seq, sys.newRef, sys.draw = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(sys)
	return m.HeapAlloc
}

// secs, msOf and usOf convert a duration to float seconds, milliseconds
// and microseconds.
func secs(d time.Duration) float64 { return d.Seconds() }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
