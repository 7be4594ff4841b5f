package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/qparse"
)

// TestStatsInvariantUnderConcurrency hammers a server from 16 goroutines and
// checks the cache accounting identity the registry re-base must preserve:
// every request resolves its translation exactly one way, so
// hits + misses + shared == requests.
func TestStatsInvariantUnderConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 200

	srv, _, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 64}, Workers: 8})
	ctx := context.Background()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := qparse.MustParse(mixedWorkload[(g+i)%len(mixedWorkload)])
				if _, err := srv.Query(ctx, q); err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := srv.Stats()
	const total = goroutines * perG
	if st.Requests != total {
		t.Errorf("requests = %d, want %d", st.Requests, total)
	}
	if got := st.CacheHits + st.CacheMisses + st.CacheShared; got != st.Requests {
		t.Errorf("hits %d + misses %d + shared %d = %d, want requests %d",
			st.CacheHits, st.CacheMisses, st.CacheShared, got, st.Requests)
	}
	if st.InFlight != 0 {
		t.Errorf("in_flight = %d after all queries returned, want 0", st.InFlight)
	}
	if st.Errors != 0 || st.Timeouts != 0 {
		t.Errorf("errors = %d, timeouts = %d, want 0", st.Errors, st.Timeouts)
	}
	// Executions come from the latency histograms now: every request fans
	// out to both sources, so each source completed exactly `total` phases.
	for name, sc := range st.Sources {
		if sc.Executions != total {
			t.Errorf("source %s executions = %d, want %d", name, sc.Executions, total)
		}
		var sum uint64
		for _, n := range sc.LatencyBuckets {
			sum += n
		}
		if sum != sc.Executions {
			t.Errorf("source %s latency buckets sum to %d, executions %d", name, sum, sc.Executions)
		}
	}
}

// TestServerMetricsExposition checks that a served workload is visible on
// the server's registry in the exposition format and agrees with Stats().
func TestServerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	srv, med, _ := bookstoreServer(Config{Cache: CacheConfig{Size: 16}, Metrics: reg})
	med.Metrics = obs.NewTranslationMetrics(reg)
	if srv.Metrics() != reg {
		t.Fatal("Metrics() did not return the configured registry")
	}

	ctx := context.Background()
	q := qparse.MustParse(`[ln = "Clancy"] and [fn = "Tom"]`)
	for i := 0; i < 3; i++ {
		if _, err := srv.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, buf.String())
	}
	byName := func(name string, labels ...string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			match := true
			for i := 0; i+1 < len(labels); i += 2 {
				if s.Label(labels[i]) != labels[i+1] {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
		return 0, false
	}

	st := srv.Stats()
	for _, check := range []struct {
		name string
		want float64
	}{
		{"qmap_serve_requests_total", float64(st.Requests)},
		{"qmap_cache_hits_total", float64(st.CacheHits)},
		{"qmap_cache_misses_total", float64(st.CacheMisses)},
		{"qmap_cache_entries", float64(st.CacheEntries)},
		{"qmap_plan_hits_total", float64(st.PlanHits)},
		{"qmap_plan_misses_total", float64(st.PlanMisses)},
		{"qmap_plan_entries", float64(st.PlanEntries)},
		{"qmap_serve_in_flight", 0},
	} {
		got, ok := byName(check.name)
		if !ok {
			t.Errorf("metric %s missing from scrape", check.name)
			continue
		}
		if got != check.want {
			t.Errorf("%s = %v, want %v", check.name, got, check.want)
		}
	}
	if v, ok := byName("qmap_source_latency_seconds_count", "source", "amazon"); !ok || v != float64(st.Sources["amazon"].Executions) {
		t.Errorf("amazon latency count = %v (present %v), want %d", v, ok, st.Sources["amazon"].Executions)
	}
	if v, ok := byName("qmap_source_latency_seconds_bucket", "source", "amazon", "le", "+Inf"); !ok || v != float64(st.Sources["amazon"].Executions) {
		t.Errorf("amazon +Inf bucket = %v (present %v), want %d", v, ok, st.Sources["amazon"].Executions)
	}
	// The mediator's rule-level counters share the registry (the spec label
	// is the mapping-knowledge name, K_Amazon): the cached repeats must not
	// re-count, so exactly one translation ran SCM.
	if v, ok := byName("qmap_scm_calls_total", "spec", "K_Amazon"); !ok || v != 1 {
		t.Errorf("qmap_scm_calls_total{spec=K_Amazon} = %v (present %v), want 1 (one uncached translation)", v, ok)
	}
}
