package core

// Deliberately weakened algorithm variants for ablation studies: each
// removes one design element the paper argues for, so the benchmarks can
// quantify that element's contribution (see EXPERIMENTS.md, E13).

import (
	"repro/internal/qtree"
)

// SCMNoSuppression is Algorithm SCM without step 2 (submatching
// suppression): every matching's emission is conjoined, including the
// redundant ones subsumed by larger matchings. The output is still a
// correct subsuming mapping (Lemma 1 makes the extra conjuncts logically
// redundant) but is larger, and with partial-mapping rules like R7 it
// carries superfluous weaker constraints.
func (t *Translator) SCMNoSuppression(cs []*qtree.Constraint) (*qtree.Node, error) {
	t.Stats.SCMCalls++
	ms, err := t.matchings(cs)
	if err != nil {
		return nil, err
	}
	kids := make([]*qtree.Node, 0, len(ms))
	for _, m := range ms {
		kids = append(kids, m.Emission)
	}
	return qtree.And(kids...).Normalize(), nil
}

// TDQMNoPartition is Algorithm TDQM without Algorithm PSafe: every complex
// conjunction is treated as one inseparable block and Disjunctivized
// wholesale. The result is still the minimal subsuming mapping, but the
// structure conversion is global-per-level rather than local-per-block, so
// cost and output size approach the DNF baseline on queries whose
// conjunctions are mostly separable.
func (t *Translator) TDQMNoPartition(q *qtree.Node) (*qtree.Node, error) {
	defer t.begin(true)()
	q = q.Normalize()
	switch {
	case q.Kind == qtree.KindOr:
		kids := make([]*qtree.Node, len(q.Kids))
		for i, d := range q.Kids {
			s, err := t.TDQMNoPartition(d)
			if err != nil {
				return nil, err
			}
			kids[i] = s
		}
		return qtree.Or(kids...).Normalize(), nil
	case q.IsSimpleConjunction():
		res, err := t.SCM(q.SimpleConjuncts())
		if err != nil {
			return nil, err
		}
		return res.Query, nil
	default:
		t.Stats.Disjunctivizations++
		return t.TDQMNoPartition(qtree.Disjunctivize(q.Kids))
	}
}
