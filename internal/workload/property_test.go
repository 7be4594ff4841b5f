package workload

import (
	"math/rand"
	"testing"

	"repro/internal/boolex"
	"repro/internal/core"
	"repro/internal/qtree"
)

// defaultScenario mixes every group kind: 4 independent attributes, 2 pair
// groups, 1 inexact pair, 1 triple — 13 base attributes, 11 rules.
func defaultScenario() *Scenario {
	return New(Config{Indep: 4, Pairs: 2, InexactPairs: 1, Triples: 1})
}

// TestTheorem2TDQMEqualsDNF is the central correctness property: for random
// queries and a sound/complete spec, Algorithm TDQM and the trivially
// correct Algorithm DNF produce logically equivalent translations over the
// shared emission atoms (Theorem 2 against the Theorem 1 + Section 5
// baseline).
func TestTheorem2TDQMEqualsDNF(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultQueryConfig()
	for i := 0; i < 300; i++ {
		q := s.RandomQuery(rng, cfg)
		tdqmT := core.NewTranslator(s.Spec)
		viaTDQM, err := tdqmT.TDQM(q)
		if err != nil {
			t.Fatalf("case %d: TDQM: %v\nq = %s", i, err, q)
		}
		dnfT := core.NewTranslator(s.Spec)
		viaDNF, err := dnfT.DNFMap(q)
		if err != nil {
			t.Fatalf("case %d: DNF: %v\nq = %s", i, err, q)
		}
		eq, err := boolex.Equivalent(viaTDQM, viaDNF)
		if err != nil {
			t.Logf("case %d: skipping equivalence (too many atoms): %v", i, err)
			continue
		}
		if !eq {
			t.Fatalf("case %d: TDQM and DNF disagree\nq    = %s\ntdqm = %s\ndnf  = %s",
				i, q, viaTDQM, viaDNF)
		}
	}
}

// TestCompactness checks the Section 8 compactness property on random
// queries. The paper claims TDQM produces the most compact translation "in
// most cases": when a constraint repeats across conjuncts, DNF's disjunct
// deduplication can occasionally win by a node or two, so the property is
// (a) aggregate — total TDQM size strictly below total DNF size — and
// (b) per-case within a small additive slack.
func TestCompactness(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultQueryConfig()
	totalTDQM, totalDNF, larger := 0, 0, 0
	for i := 0; i < 300; i++ {
		q := s.RandomQuery(rng, cfg)
		tr := core.NewTranslator(s.Spec)
		viaTDQM, err := tr.TDQM(q)
		if err != nil {
			t.Fatal(err)
		}
		viaDNF, err := tr.DNFMap(q)
		if err != nil {
			t.Fatal(err)
		}
		totalTDQM += viaTDQM.Size()
		totalDNF += viaDNF.Size()
		if viaTDQM.Size() > viaDNF.Size() {
			larger++
			if viaTDQM.Size() > viaDNF.Size()+4 {
				t.Fatalf("case %d: TDQM output much larger than DNF output (%d > %d)\nq = %s",
					i, viaTDQM.Size(), viaDNF.Size(), q)
			}
		}
	}
	if totalTDQM >= totalDNF {
		t.Fatalf("aggregate TDQM size %d not below aggregate DNF size %d", totalTDQM, totalDNF)
	}
	if larger > 15 { // 5% of 300
		t.Fatalf("TDQM larger than DNF in %d/300 cases; expected rare", larger)
	}
}

// TestDefinition1Subsumption checks the subsumption guarantee on data: for
// random queries and random tuples, every tuple satisfying Q satisfies the
// translation S(Q) (Definition 1 condition 2, witnessed empirically).
func TestDefinition1Subsumption(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultQueryConfig()
	hits := 0
	for i := 0; i < 120; i++ {
		q := s.RandomQuery(rng, cfg)
		tr := core.NewTranslator(s.Spec)
		mapped, err := tr.TDQM(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Spec.Target.Expressible(mapped); err != nil {
			t.Fatalf("case %d: %v\nq = %s\nS(q) = %s", i, err, q, mapped)
		}
		for j := 0; j < 60; j++ {
			tup := s.RandomTuple(rng)
			inQ, err := s.Eval.EvalQuery(q, tup)
			if err != nil {
				t.Fatal(err)
			}
			if !inQ {
				continue
			}
			hits++
			inS, err := s.Eval.EvalQuery(mapped, tup)
			if err != nil {
				t.Fatal(err)
			}
			if !inS {
				t.Fatalf("case %d: tuple satisfies Q but not S(Q)\nq = %s\nS(q) = %s\ntuple = %s",
					i, q, mapped, tup)
			}
		}
	}
	if hits < 50 {
		t.Fatalf("only %d satisfying tuples across all cases; property weakly exercised", hits)
	}
}

// TestEq3FilterRestoresExactness checks Eq. 3 on data: Q ≡ F ∧ S(Q) for the
// filter returned by TranslateWithFilter.
func TestEq3FilterRestoresExactness(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultQueryConfig()
	for i := 0; i < 80; i++ {
		q := s.RandomQuery(rng, cfg)
		tr := core.NewTranslator(s.Spec)
		mapped, filter, err := tr.TranslateWithFilter(q, core.AlgTDQM)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 60; j++ {
			tup := s.RandomTuple(rng)
			inQ, err := s.Eval.EvalQuery(q, tup)
			if err != nil {
				t.Fatal(err)
			}
			inS, err := s.Eval.EvalQuery(mapped, tup)
			if err != nil {
				t.Fatal(err)
			}
			inF, err := s.Eval.EvalQuery(filter, tup)
			if err != nil {
				t.Fatal(err)
			}
			if inQ != (inS && inF) {
				t.Fatalf("case %d: Eq.3 violated: Q=%v S=%v F=%v\nq = %s\nS(q) = %s\nF = %s\ntuple = %s",
					i, inQ, inS, inF, q, mapped, filter, tup)
			}
		}
	}
}

// TestBranchFiltersRestoreExactness checks the per-branch filter identity
// on data: σ_Q(D) = ∪_i σ_Fi(σ_Si(D)) for TranslateBranches output.
func TestBranchFiltersRestoreExactness(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultQueryConfig()
	tightBranches := 0
	for i := 0; i < 80; i++ {
		q := s.RandomQuery(rng, cfg)
		tr := core.NewTranslator(s.Spec)
		branches, err := tr.TranslateBranches(q, core.AlgTDQM)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range branches {
			if b.Branch.IsSimpleConjunction() && !b.Filter.EqualCanonical(b.Branch) {
				tightBranches++ // a branch with a residue strictly smaller than itself
			}
		}
		for j := 0; j < 50; j++ {
			tup := s.RandomTuple(rng)
			inQ, err := s.Eval.EvalQuery(q, tup)
			if err != nil {
				t.Fatal(err)
			}
			inUnion := false
			for _, b := range branches {
				inS, err := s.Eval.EvalQuery(b.Mapped, tup)
				if err != nil {
					t.Fatal(err)
				}
				if !inS {
					continue
				}
				inF, err := s.Eval.EvalQuery(b.Filter, tup)
				if err != nil {
					t.Fatal(err)
				}
				if inF {
					inUnion = true
					break
				}
			}
			if inQ != inUnion {
				t.Fatalf("case %d: branch union mismatch: Q=%v union=%v\nq = %s\ntuple %s",
					i, inQ, inUnion, q, tup)
			}
		}
	}
	if tightBranches == 0 {
		t.Error("no branch ever had a tight (non-trivial, smaller-than-branch) filter; property weakly exercised")
	}
}

// TestTheorem6PSafePartitionSafety checks that PSafe partitions are safe on
// random conjunctions: translating blocks independently and conjoining
// equals translating the whole conjunction via DNF (S(Q̂) = ∏ S(∧(B))).
func TestTheorem6PSafePartitionSafety(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(5))
	cfg := QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.3}
	for i := 0; i < 200; i++ {
		q := s.RandomQuery(rng, cfg)
		if q.Kind != qtree.KindAnd {
			continue
		}
		tr := core.NewTranslator(s.Spec)
		p, err := tr.PSafe(q.Kids)
		if err != nil {
			t.Fatal(err)
		}
		var blockMaps []*qtree.Node
		for _, blk := range p.Blocks {
			conj := make([]*qtree.Node, len(blk))
			for j, x := range blk {
				conj[j] = q.Kids[x]
			}
			bm, err := tr.DNFMap(qtree.AndOf(conj...))
			if err != nil {
				t.Fatal(err)
			}
			blockMaps = append(blockMaps, bm)
		}
		viaBlocks := qtree.AndOf(blockMaps...)
		whole, err := tr.DNFMap(q)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := boolex.Equivalent(viaBlocks, whole)
		if err != nil {
			continue // atom overflow; skip
		}
		if !eq {
			t.Fatalf("case %d: partition %s unsafe\nq = %s\nblocks = %s\nwhole = %s",
				i, p, q, viaBlocks, whole)
		}
	}
}

// TestLemma3RandomPartitions checks Lemma 3 on random conjunctions: PSafe
// computes the same partition whether the safety machinery uses essential
// DNF or full DNF.
func TestLemma3RandomPartitions(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(7))
	cfg := QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.3}
	checked := 0
	for i := 0; i < 200; i++ {
		q := s.RandomQuery(rng, cfg)
		if q.Kind != qtree.KindAnd {
			continue
		}
		checked++
		ednfTr := core.NewTranslator(s.Spec)
		pE, err := ednfTr.PSafe(q.Kids)
		if err != nil {
			t.Fatal(err)
		}
		fullTr := core.NewTranslator(s.Spec, core.WithFullDNFSafety(true))
		pF, err := fullTr.PSafe(q.Kids)
		if err != nil {
			t.Fatal(err)
		}
		if pE.String() != pF.String() {
			t.Fatalf("case %d: partitions differ (EDNF %s vs full DNF %s)\nq = %s",
				i, pE, pF, q)
		}
		if fullTr.Stats.ProductTerms < ednfTr.Stats.ProductTerms {
			t.Fatalf("case %d: EDNF examined more terms (%d) than full DNF (%d)",
				i, ednfTr.Stats.ProductTerms, fullTr.Stats.ProductTerms)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d conjunctions checked; generator too narrow", checked)
	}
}

// TestAblationEquivalence checks on random queries that the ablated
// variants stay logically correct: TDQM without PSafe ≡ TDQM, and SCM
// without suppression ≡ SCM on data.
func TestAblationEquivalence(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultQueryConfig()
	for i := 0; i < 120; i++ {
		q := s.RandomQuery(rng, cfg)
		tr := core.NewTranslator(s.Spec)
		full, err := tr.TDQM(q)
		if err != nil {
			t.Fatal(err)
		}
		ablated, err := tr.TDQMNoPartition(q)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := boolex.Equivalent(full, ablated)
		if err != nil {
			continue
		}
		if !eq {
			t.Fatalf("case %d: TDQMNoPartition differs\nq = %s\nfull = %s\nablated = %s",
				i, q, full, ablated)
		}
		if ablated.Size() < full.Size() {
			t.Fatalf("case %d: ablated output smaller than TDQM's (%d < %d)",
				i, ablated.Size(), full.Size())
		}
	}
}

// TestSCMAgainstBruteForce cross-checks Algorithm SCM against a brute-force
// implementation of Eq. 4 (the conjunction of S(m̂) over *all* matchings,
// with Lemma 1 making submatchings redundant): the two must be logically
// equivalent.
func TestSCMAgainstBruteForce(t *testing.T) {
	s := defaultScenario()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		q := s.SimpleConjunction(rng, 2+rng.Intn(6))
		tr := core.NewTranslator(s.Spec)
		res, err := tr.SCMQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: conjoin emissions of ALL matchings (no suppression).
		ms, err := s.Spec.Matchings(q.SimpleConjuncts())
		if err != nil {
			t.Fatal(err)
		}
		var kids []*qtree.Node
		for _, m := range ms {
			kids = append(kids, m.Emission)
		}
		brute := qtree.AndOf(kids...)
		// Suppressed emissions are semantically implied, not syntactically
		// identical (Lemma 1), so compare on data, not on Boolean atoms.
		for j := 0; j < 120; j++ {
			tup := s.RandomTuple(rng)
			inSCM, err := s.Eval.EvalQuery(res.Query, tup)
			if err != nil {
				t.Fatal(err)
			}
			inBrute, err := s.Eval.EvalQuery(brute, tup)
			if err != nil {
				t.Fatal(err)
			}
			if inSCM != inBrute {
				t.Fatalf("case %d: SCM with suppression differs from Eq.4 on data\nq = %s\nscm = %s\nbrute = %s\ntuple = %s",
					i, q, res.Query, brute, tup)
			}
		}
	}
}
