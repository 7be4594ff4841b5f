package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/qparse"
	"repro/internal/qtree"
)

// TestServePlanGrid re-runs the mixed workload against the sequential
// plan-free mediator baseline across shared-translation-plan on/off and
// translation parallelism 0/4: the plan must be answer-invariant, alone and
// combined with the worker pool, and invisible when disabled.
func TestServePlanGrid(t *testing.T) {
	baseMed, baseData := newBookstoreMediator()
	qs := make([]*qtree.Node, len(mixedWorkload))
	want := make([]string, len(mixedWorkload))
	for i, s := range mixedWorkload {
		qs[i] = qparse.MustParse(s)
		rel, _, err := baseMed.ExecuteUnion(qs[i], baseData)
		if err != nil {
			t.Fatalf("sequential baseline %q: %v", s, err)
		}
		want[i] = render(rel)
	}

	for _, g := range []struct {
		name string
		plan int // Config.Cache.PlanSize
		par  int // mediator.Parallelism
	}{
		{"plan-off/seq", -1, 0},
		{"plan-on/seq", 0, 0},
		{"plan-off/par4", -1, 4},
		{"plan-on/par4", 0, 4},
	} {
		t.Run(g.name, func(t *testing.T) {
			med, data := newBookstoreMediator()
			med.Parallelism = g.par
			// CacheSize 1 keeps the translation cache from absorbing the
			// workload, so repeated queries actually consult the plan.
			srv := New(med, data, Config{Cache: CacheConfig{Size: 1, PlanSize: g.plan}})
			if (srv.Plan() != nil) != (g.plan >= 0) {
				t.Fatalf("Plan() nil-ness wrong for PlanSize %d", g.plan)
			}

			ctx := context.Background()
			const goroutines = 8
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 3*len(qs); i++ {
						k := (w + i) % len(qs)
						rel, err := srv.Query(ctx, qs[k])
						if err != nil {
							t.Errorf("Query(%q): %v", mixedWorkload[k], err)
							return
						}
						if render(rel) != want[k] {
							t.Errorf("Query(%q) diverged from plan-free sequential baseline", mixedWorkload[k])
							return
						}
					}
				}(w)
			}
			wg.Wait()

			st := srv.Stats()
			if g.plan < 0 {
				if st.PlanHits != 0 || st.PlanMisses != 0 || st.PlanEntries != 0 {
					t.Errorf("disabled plan reported activity: %+v", st)
				}
			} else if st.PlanHits == 0 {
				t.Error("enabled plan recorded no hits across a repeated workload")
			}
		})
	}
}

// TestServeKeepsMediatorPlan pins the install precedence: a mediator that
// already carries a translation plan keeps it, and the server exposes that
// same plan.
func TestServeKeepsMediatorPlan(t *testing.T) {
	pl := core.NewPlan(64)
	med, data := newBookstoreMediator()
	med.Plan = pl
	srv := New(med, data, Config{})
	if srv.Plan() != pl {
		t.Error("New replaced the mediator's existing translation plan")
	}

	med2, data2 := newBookstoreMediator()
	srv2 := New(med2, data2, Config{})
	if srv2.Plan() == nil || med2.Plan != srv2.Plan() {
		t.Error("New did not install its default plan on the mediator")
	}
}
