package core_test

import (
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
)

// TestMemoCompiledConformance is the memo/compiled-equivalence contract:
// across ≥40 conformance seeds and both structural algorithms, translation
// with the matching memo on/off and the compiled dispatch engine on/off
// produces EqualCanonical queries and identical residues. Variants sharing
// the compiled setting must also report identical Stats — the memo
// compensates every counter on a hit — while compiled on/off may differ only
// in RuleAttempts (the index probes fewer rules).
func TestMemoCompiledConformance(t *testing.T) {
	algs := []string{core.AlgTDQM, core.AlgDNF}
	for seed := int64(1); seed <= 40; seed++ {
		c := conformance.NewCase(seed)
		for _, alg := range algs {
			base := core.NewTranslator(c.S.Spec, core.WithMemo(false), core.WithCompiled(false))
			wantQ, wantF, wantErr := base.TranslateWithFilter(c.Query, alg)

			variants := []struct {
				name     string
				memo     bool
				compiled bool
			}{
				{"memo", true, false},
				{"compiled", false, true},
				{"memo+compiled", true, true},
			}
			for _, v := range variants {
				tr := core.NewTranslator(c.S.Spec, core.WithMemo(v.memo), core.WithCompiled(v.compiled))
				gotQ, gotF, gotErr := tr.TranslateWithFilter(c.Query, alg)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d %s %s: err=%v, baseline err=%v",
						seed, alg, v.name, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !gotQ.EqualCanonical(wantQ) {
					t.Errorf("seed %d (%s) %s %s: mapped query differs\n got: %s\nwant: %s",
						seed, c.SeedString(), alg, v.name, gotQ, wantQ)
				}
				if !gotF.EqualCanonical(wantF) {
					t.Errorf("seed %d (%s) %s %s: residue differs\n got: %s\nwant: %s",
						seed, c.SeedString(), alg, v.name, gotF, wantF)
				}
				if !v.compiled && tr.Stats != base.Stats {
					t.Errorf("seed %d %s %s: Stats diverged from memo-off baseline\n got: %+v\nwant: %+v",
						seed, alg, v.name, tr.Stats, base.Stats)
				}
				if v.compiled {
					w := base.Stats
					g := tr.Stats
					// RuleAttempts legitimately differs; everything else must not.
					w.RuleAttempts, g.RuleAttempts = 0, 0
					if g != w {
						t.Errorf("seed %d %s %s: non-attempt Stats diverged\n got: %+v\nwant: %+v",
							seed, alg, v.name, tr.Stats, base.Stats)
					}
					if tr.Stats.RuleAttempts > base.Stats.RuleAttempts {
						t.Errorf("seed %d %s %s: compiled probed more rules (%d) than uncompiled (%d)",
							seed, alg, v.name, tr.Stats.RuleAttempts, base.Stats.RuleAttempts)
					}
				}
			}
		}
	}
}

// TestMemoDefaultsOnAndScoped checks the memo actually engages by default —
// a structural translation on a query with repeated subtrees must record
// hits — and that its lifetime is one translation: a second run of the same
// query starts cold (same hit count as the first, not a warm full-hit run).
func TestMemoDefaultsOnAndScoped(t *testing.T) {
	c := conformance.NewCase(3)
	tr := core.NewTranslator(c.S.Spec)
	if _, _, err := tr.TranslateWithFilter(c.Query, core.AlgTDQM); err != nil {
		t.Fatal(err)
	}
	first := tr.MemoStats()
	if first.Misses == 0 {
		t.Fatal("no memo misses recorded; memo appears disabled by default")
	}
	if _, _, err := tr.TranslateWithFilter(c.Query, core.AlgTDQM); err != nil {
		t.Fatal(err)
	}
	second := tr.MemoStats()
	if got, want := second.Misses-first.Misses, first.Misses; got != want {
		t.Errorf("second translation recorded %d misses, want %d (memo must not outlive a translation)",
			got, want)
	}
}
