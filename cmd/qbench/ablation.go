package main

// Experiment E13 quantifies the contribution of each design element by
// running deliberately weakened algorithm variants (internal/core's
// ablation API) on the workloads of E9–E11.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/qparse"
	"repro/internal/sources"
	"repro/internal/workload"
)

func runE13() {
	am := sources.NewAmazon()

	// (a) Submatching suppression (Algorithm SCM step 2).
	fmt.Println("(a) SCM with vs without submatching suppression, Q = pyear ∧ pmonth:")
	tr := core.NewTranslator(am.Spec)
	cs := qparse.MustParse(`[pyear = 1997] and [pmonth = 5]`).SimpleConjuncts()
	res, err := tr.SCM(cs)
	must(err)
	noSup, err := tr.SCMNoSuppression(cs)
	must(err)
	table([]string{"variant", "output", "nodes"}, [][]string{
		{"SCM", res.Query.String(), fmt.Sprint(res.Query.Size())},
		{"no suppression", noSup.String(), fmt.Sprint(noSup.Size())},
	})

	// (b) PSafe partitioning inside TDQM.
	fmt.Println("\n(b) TDQM with vs without PSafe (mostly separable conjunctions):")
	var rows [][]string
	for _, k := range []int{4, 8, 12} {
		s, q := workload.WorstCaseCompactness(k)
		trFull := core.NewTranslator(s.Spec)
		out, err := trFull.TDQM(q)
		must(err)
		nsFull := bench(func() {
			_, err := trFull.TDQM(q)
			must(err)
		})
		trAb := core.NewTranslator(s.Spec)
		outAb, err := trAb.TDQMNoPartition(q)
		must(err)
		nsAb := bench(func() {
			_, err := trAb.TDQMNoPartition(q)
			must(err)
		})
		rows = append(rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%d nodes / %.0f ns", out.Size(), nsFull),
			fmt.Sprintf("%d nodes / %.0f ns", outAb.Size(), nsAb),
		})
	}
	table([]string{"k", "TDQM (with PSafe)", "TDQM without PSafe"}, rows)

	// (c) EDNF vs full DNF in the safety check.
	fmt.Println("\n(c) PSafe safety check with EDNF vs full DNF (n=4, k=3):")
	rows = nil
	for e := 0; e <= 3; e++ {
		s, q := workload.DependencyConjunction(4, 3, e)
		ednfTr := core.NewTranslator(s.Spec)
		_, err := ednfTr.PSafe(q.Kids)
		must(err)
		fullTr := core.NewTranslator(s.Spec, core.WithFullDNFSafety(true))
		_, err = fullTr.PSafe(q.Kids)
		must(err)
		nsE := bench(func() {
			tr := core.NewTranslator(s.Spec)
			_, err := tr.PSafe(q.Kids)
			must(err)
		})
		nsF := bench(func() {
			tr := core.NewTranslator(s.Spec, core.WithFullDNFSafety(true))
			_, err := tr.PSafe(q.Kids)
			must(err)
		})
		rows = append(rows, []string{
			fmt.Sprint(e),
			fmt.Sprintf("%d terms / %.0f ns", ednfTr.Stats.ProductTerms, nsE),
			fmt.Sprintf("%d terms / %.0f ns", fullTr.Stats.ProductTerms, nsF),
		})
	}
	table([]string{"e", "EDNF", "full DNF"}, rows)
	fmt.Println("\neach ablation removes one design element the paper argues for; the")
	fmt.Println("partitions and answer sets stay identical (verified by tests), only")
	fmt.Println("cost and compactness degrade.")
}
