package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clients is the number of client (closed loop) or sender (open loop)
// goroutines: one per CPU this process may use.
var clients = runtime.NumCPU()

// warmUp sends every warm-up pool query once, in order, from one client.
func warmUp(ctx context.Context, c *checker) {
	var t tally
	for p := 0; p < c.sys.warm; p++ {
		t.record(c.sendPool(ctx, p, p))
	}
	c.add(&t)
}

// closedLoop runs `clients` clients that each send their next request as
// soon as the previous one returns, for d. Requests take consecutive
// stream indices from next. It returns the operations completed per second
// over each run of `block` consecutive completions, or over the whole phase
// when it completes fewer.
func closedLoop(ctx context.Context, c *checker, next *atomic.Int64, d time.Duration, block int) []float64 {
	start := time.Now()
	deadline := start.Add(d)
	var done atomic.Int64
	var mu sync.Mutex
	marks := []time.Time{start}
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for time.Now().Before(deadline) {
				t.record(c.send(ctx, int(next.Add(1)-1)))
				if done.Add(1)%int64(block) == 0 {
					at := time.Now()
					mu.Lock()
					marks = append(marks, at)
					mu.Unlock()
				}
			}
			c.add(&t)
		}()
	}
	wg.Wait()
	if len(marks) == 1 {
		return []float64{float64(done.Load()) / time.Since(start).Seconds()}
	}
	rates := make([]float64, 0, len(marks)-1)
	for i := 1; i < len(marks); i++ {
		rates = append(rates, float64(block)/marks[i].Sub(marks[i-1]).Seconds())
	}
	return rates
}

// openResult is the outcome of open-loop phases.
type openResult struct {
	latency []time.Duration // per request, from its due time
	late    []time.Duration // scheduler hand-off lateness per request
}

// sort orders both samples ascending, for quantile.
func (o openResult) sort() {
	sortDurations(o.latency)
	sortDurations(o.late)
}

// job is one due request handed from the scheduler to a sender: request
// first+k of the stream, the phase's k-th.
type job struct {
	first, k int
	due      time.Time
}

// openLoop offers n requests at a fixed rate, regardless of how fast the
// server answers. One scheduler goroutine hands each request to one of
// `clients` sender goroutines when it falls due; latency is measured from
// the due time, so time a request spends queued behind a slow one counts.
// Latencies are returned in request order. A failed request counts as
// missing every latency limit (+Inf).
func openLoop(ctx context.Context, c *checker, next *atomic.Int64, rate float64, n int) openResult {
	// The queue holds every request of the phase, so the scheduler never
	// blocks on a backlog and its lateness measures only itself.
	jobs := make(chan job, n)
	lat := make([]time.Duration, n)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for j := range jobs {
				ok := t.record(c.send(ctx, j.first+j.k))
				lat[j.k] = time.Since(j.due)
				if !ok {
					lat[j.k] = time.Duration(1<<63 - 1)
				}
			}
			c.add(&t)
		}()
	}
	late := make([]time.Duration, n)
	interval := float64(time.Second) / rate
	first := int(next.Add(int64(n)) - int64(n))
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) * interval))
		sleepUntil(due)
		late[k] = time.Since(due)
		jobs <- job{first: first, k: k, due: due}
	}
	close(jobs)
	wg.Wait()
	return openResult{latency: lat, late: late}
}

// sleepUntil blocks until t. It sleeps in nanosleep rather than
// time.Sleep: the runtime's timers wake up to a millisecond late on Linux,
// which would add generator lateness to every open-loop latency.
func sleepUntil(t time.Time) {
	for w := time.Until(t); w > 0; w = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(w))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(w)
		}
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
}

// quantile reads the q-quantile of an ascending sample by nearest rank.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
