package core_test

import (
	"testing"

	"repro/internal/boolex"
	"repro/internal/core"
	"repro/internal/qparse"
	"repro/internal/sources"
)

// TestSCMNoSuppressionIsLooser: without submatching suppression the output
// conjoins redundant weaker emissions (R7's year-only date alongside R6's
// month date). The result remains logically equivalent on data but is
// strictly larger syntactically.
func TestSCMNoSuppressionIsLooser(t *testing.T) {
	am := sources.NewAmazon()
	tr := core.NewTranslator(am.Spec)
	q := qparse.MustParse(`[pyear = 1997] and [pmonth = 5]`)
	cs := q.SimpleConjuncts()

	res, err := tr.SCM(cs)
	if err != nil {
		t.Fatal(err)
	}
	noSup, err := tr.SCMNoSuppression(cs)
	if err != nil {
		t.Fatal(err)
	}
	if noSup.Size() <= res.Query.Size() {
		t.Errorf("no-suppression output (%d nodes) not larger than SCM output (%d nodes)",
			noSup.Size(), res.Query.Size())
	}
	// The redundant conjunct must be the year-only pdate constraint.
	found := false
	for _, c := range noSup.Constraints() {
		if c.String() == "[pdate during 97]" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected redundant [pdate during 97] in %s", noSup)
	}
}

// TestTDQMNoPartitionEquivalentButLarger: skipping PSafe still yields a
// correct mapping (it is the DNF approach applied level by level) but
// destroys structure that TDQM preserves.
func TestTDQMNoPartitionEquivalentButLarger(t *testing.T) {
	am := sources.NewAmazon()
	qbook := qparse.MustParse(
		`(([ln = "Smith"] and [fn = "John"]) or [kwd contains web] or [kwd contains java]) ` +
			`and [pyear = 1997] and ([pmonth = 5] or [pmonth = 6])`)

	tr := core.NewTranslator(am.Spec)
	withPSafe, err := tr.TDQM(qbook)
	if err != nil {
		t.Fatal(err)
	}
	without, err := tr.TDQMNoPartition(qbook)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := boolex.Equivalent(withPSafe, without)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("ablated TDQM differs logically\nwith:    %s\nwithout: %s", withPSafe, without)
	}
	if without.Size() <= withPSafe.Size() {
		t.Errorf("no-partition output (%d nodes) not larger than TDQM output (%d nodes)",
			without.Size(), withPSafe.Size())
	}
}

// TestFullDNFSafetySamePartition: Lemma 3 — PSafe computes identical
// partitions with essential and with full DNF; only the examined term count
// differs.
func TestFullDNFSafetySamePartition(t *testing.T) {
	am := sources.NewAmazon()
	qbook := qparse.MustParse(
		`(([ln = "Smith"] and [fn = "John"]) or [kwd contains web] or [kwd contains java]) ` +
			`and [pyear = 1997] and ([pmonth = 5] or [pmonth = 6])`).Normalize()

	ednfTr := core.NewTranslator(am.Spec)
	pE, err := ednfTr.PSafe(qbook.Kids)
	if err != nil {
		t.Fatal(err)
	}
	fullTr := core.NewTranslator(am.Spec, core.WithFullDNFSafety(true))
	pF, err := fullTr.PSafe(qbook.Kids)
	if err != nil {
		t.Fatal(err)
	}
	if pE.String() != pF.String() {
		t.Errorf("partitions differ: EDNF %s vs full DNF %s", pE, pF)
	}
	if fullTr.Stats.ProductTerms <= ednfTr.Stats.ProductTerms {
		t.Errorf("full DNF examined %d terms, EDNF %d — expected full DNF to examine more",
			fullTr.Stats.ProductTerms, ednfTr.Stats.ProductTerms)
	}
}
