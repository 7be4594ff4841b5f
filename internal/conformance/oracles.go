package conformance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/qtree"
	"repro/internal/rules"
	"repro/internal/values"
	"repro/internal/workload"
)

// variantNames lists the algorithm variants every dataset-backed oracle
// exercises: the DNF baseline, TDQM, TDQM with the full-DNF safety ablation
// (Lemma 3: identical partitions, different cost), TDQM without
// partitioning, and the Garlic-style CNF baseline.
var variantNames = []string{"dnf", "tdqm", "tdqm-fulldnf", "tdqm-nopartition", "cnf"}

// translateVariant maps q with the named variant under a fresh translator.
func translateVariant(spec *rules.Spec, name string, q *qtree.Node) (*qtree.Node, error) {
	tr := core.NewTranslator(spec, core.WithFullDNFSafety(name == "tdqm-fulldnf"))
	switch name {
	case "dnf":
		return tr.DNFMap(q)
	case "tdqm", "tdqm-fulldnf":
		return tr.TDQM(q)
	case "tdqm-nopartition":
		return tr.TDQMNoPartition(q)
	case "cnf":
		return tr.CNFMap(q)
	default:
		return nil, fmt.Errorf("conformance: unknown variant %q", name)
	}
}

// translateWithFilterVariant additionally returns the filter query F of
// Eq. 3. The ablated TDQM variant is not routed through
// core.TranslateWithFilter, so it gets the always-correct conservative
// filter Q itself.
func translateWithFilterVariant(spec *rules.Spec, name string, q *qtree.Node) (mapped, filter *qtree.Node, err error) {
	tr := core.NewTranslator(spec, core.WithFullDNFSafety(name == "tdqm-fulldnf"))
	switch name {
	case "dnf":
		return tr.TranslateWithFilter(q, core.AlgDNF)
	case "tdqm", "tdqm-fulldnf":
		return tr.TranslateWithFilter(q, core.AlgTDQM)
	case "cnf":
		return tr.TranslateWithFilter(q, core.AlgCNF)
	case "tdqm-nopartition":
		mapped, err = tr.TDQMNoPartition(q)
		return mapped, q.Clone(), err
	default:
		return nil, nil, fmt.Errorf("conformance: unknown variant %q", name)
	}
}

// checkSubsumption executes q and every variant's translation over the
// dataset and demands σ_Q(D) ⊆ σ_S(Q)(D), plus target expressibility of
// every translation (Definition 1, conditions 1–2).
func (h *Harness) checkSubsumption(c *Case) *Violation {
	for _, vn := range variantNames {
		mapped, err := translateVariant(c.S.Spec, vn, c.Query)
		if err != nil {
			return &Violation{Oracle: "harness", Variant: vn, Detail: fmt.Sprintf("translate: %v", err)}
		}
		if err := c.S.Spec.Target.Expressible(mapped); err != nil {
			return &Violation{Oracle: "subsumption", Variant: vn,
				Detail: fmt.Sprintf("translation not expressible at target: %v\nS(q) = %s", err, mapped)}
		}
		for _, t := range c.Data {
			inQ, err := c.S.Eval.EvalQuery(c.Query, t)
			if err != nil {
				return &Violation{Oracle: "harness", Variant: vn, Detail: fmt.Sprintf("eval Q: %v", err)}
			}
			if !inQ {
				continue
			}
			inS, err := c.S.Eval.EvalQuery(mapped, t)
			if err != nil {
				return &Violation{Oracle: "harness", Variant: vn, Detail: fmt.Sprintf("eval S(Q): %v", err)}
			}
			if !inS {
				return &Violation{Oracle: "subsumption", Variant: vn,
					Detail: fmt.Sprintf("tuple satisfies Q but not S(Q)\nq = %s\nS(q) = %s\ntuple = %s", c.Query, mapped, t)}
			}
		}
	}
	return nil
}

// checkFilterExactness executes Eq. 3: for every variant, the post-filter
// answer σ_F(σ_S(Q)(D)) must be byte-identical to the true answer σ_Q(D) —
// and therefore byte-identical across variants.
func (h *Harness) checkFilterExactness(c *Case) *Violation {
	rel := engine.NewRelation("d", c.Data...)
	truth, err := rel.Select(c.Query, c.S.Eval)
	if err != nil {
		return &Violation{Oracle: "harness", Detail: fmt.Sprintf("eval Q over dataset: %v", err)}
	}
	want := renderRelation(truth)
	for _, vn := range variantNames {
		mapped, filter, err := translateWithFilterVariant(c.S.Spec, vn, c.Query)
		if err != nil {
			return &Violation{Oracle: "harness", Variant: vn, Detail: fmt.Sprintf("translate with filter: %v", err)}
		}
		if h.opts.Plant == PlantDropFilter {
			filter = qtree.True()
		}
		sel, err := rel.Select(mapped, c.S.Eval)
		if err != nil {
			return &Violation{Oracle: "harness", Variant: vn, Detail: fmt.Sprintf("eval S(Q): %v", err)}
		}
		got, err := sel.Select(filter, c.S.Eval)
		if err != nil {
			return &Violation{Oracle: "harness", Variant: vn, Detail: fmt.Sprintf("eval F: %v", err)}
		}
		if g := renderRelation(got); g != want {
			return &Violation{Oracle: "filter-exactness", Variant: vn,
				Detail: fmt.Sprintf("σ_F(σ_S(D)) differs from σ_Q(D)\nq = %s\nS(q) = %s\nF = %s\ngot %d tuples, want %d",
					c.Query, mapped, filter, got.Len(), truth.Len())}
		}
	}
	return nil
}

// checkMinimality probes Definition 1 condition 3 on the SCM translation of
// each satisfiable DNF disjunct: every emitted atom must be irredundant
// (loosening it to TRUE admits an adversarial false positive the full
// translation rejects) and inexact atoms must be tight (replacing a
// starts/contains relaxation with plain equality drops an adversarial
// witness that satisfies the disjunct). Witness tuples are constructed by
// sweeping the atom's dependency group through the whole value domain while
// the rest of the assignment holds the other atoms satisfied.
func (h *Harness) checkMinimality(c *Case) *Violation {
	for _, d := range satisfiableDisjuncts(c.Query, h.opts.MaxDisjuncts) {
		conj := d.set.Conjunction()
		s, err := h.scmTranslate(c, d.set.Slice())
		if err != nil {
			return &Violation{Oracle: "harness", Detail: fmt.Sprintf("SCM(%s): %v", conj, err)}
		}
		s = s.Normalize()
		if s.IsTrue() {
			continue
		}
		nLeaves := countLeaves(s)
		for i := 0; i < nLeaves; i++ {
			atom := leafAt(s, i)
			if atom == nil || atom.C.IsJoin() {
				continue
			}
			g, ok := c.S.GroupFor(atom.C.Attr.Name)
			if !ok {
				continue
			}
			if v := h.probeIrredundant(c, d, s, i, atom, g, conj); v != nil {
				return v
			}
			if v := h.probeTight(c, d, s, i, atom, g, conj); v != nil {
				return v
			}
		}
	}
	return nil
}

// scmTranslate is the harness's SCM entry point; PlantNoSuppression reroutes
// it through the ablation hook.
func (h *Harness) scmTranslate(c *Case, cs []*qtree.Constraint) (*qtree.Node, error) {
	tr := core.NewTranslator(c.S.Spec)
	if h.opts.Plant == PlantNoSuppression {
		return tr.SCMNoSuppression(cs)
	}
	res, err := tr.SCM(cs)
	if err != nil {
		return nil, err
	}
	return res.Query, nil
}

// probeIrredundant demands a false-positive witness for atom i: a tuple the
// translation with the atom loosened to TRUE accepts but the full
// translation rejects. Absence over the whole domain sweep of the atom's
// group means the atom is implied by the rest — a redundancy minimal
// translations never emit.
func (h *Harness) probeIrredundant(c *Case, d disjunct, s *qtree.Node, i int, atom *qtree.Node, g workload.Group, conj *qtree.Node) *Violation {
	loosened := replaceLeafAt(s, i, qtree.True()).Normalize()
	for _, combo := range valueCombos(c.S.ValueDomain, len(g.Attrs)) {
		vals := cloneAssign(d.assign)
		for k, a := range g.Attrs {
			vals[a] = fmt.Sprintf("v%d", combo[k])
		}
		t := c.S.Tuple(vals)
		inS, err := c.S.Eval.EvalQuery(s, t)
		if err != nil {
			return &Violation{Oracle: "harness", Detail: fmt.Sprintf("eval S: %v", err)}
		}
		inL, err := c.S.Eval.EvalQuery(loosened, t)
		if err != nil {
			return &Violation{Oracle: "harness", Detail: fmt.Sprintf("eval loosened S: %v", err)}
		}
		if inL && !inS {
			return nil // witness found: the atom does real work
		}
	}
	return &Violation{Oracle: "minimality",
		Detail: fmt.Sprintf("atom %s of S(%s) is redundant: loosening it to TRUE admits no tuple over the full domain of group %s\nS = %s",
			atom.C, conj, g.Target, s)}
}

// probeTight checks that a relaxed atom (starts/contains) cannot be
// tightened to plain equality without losing subsumption: some tuple
// satisfying the disjunct must fail the tightened translation. The sweep
// varies only the group attributes the disjunct leaves unconstrained, so
// every candidate tuple still satisfies the original query.
func (h *Harness) probeTight(c *Case, d disjunct, s *qtree.Node, i int, atom *qtree.Node, g workload.Group, conj *qtree.Node) *Violation {
	tv, ok := tightenValue(atom.C)
	if !ok {
		return nil
	}
	tight := replaceLeafAt(s, i, qtree.Leaf(qtree.Sel(atom.C.Attr, qtree.OpEq, tv))).Normalize()
	for _, combo := range valueCombos(c.S.ValueDomain, len(g.Attrs)) {
		vals := cloneAssign(d.assign)
		for k, a := range g.Attrs {
			if _, constrained := d.assign[a]; !constrained {
				vals[a] = fmt.Sprintf("v%d", combo[k])
			}
		}
		t := c.S.Tuple(vals)
		inQ, err := c.S.Eval.EvalQuery(conj, t)
		if err != nil {
			return &Violation{Oracle: "harness", Detail: fmt.Sprintf("eval disjunct: %v", err)}
		}
		if !inQ {
			continue
		}
		inT, err := c.S.Eval.EvalQuery(tight, t)
		if err != nil {
			return &Violation{Oracle: "harness", Detail: fmt.Sprintf("eval tightened S: %v", err)}
		}
		if !inT {
			return nil // witness found: tightening loses the witness, so the relaxation is necessary
		}
	}
	return &Violation{Oracle: "minimality",
		Detail: fmt.Sprintf("atom %s of S(%s) can be tightened to equality without dropping any witness — the translation is not as tight as expressible\nS = %s",
			atom.C, conj, s)}
}

// tightenValue returns the equality constant that strictly tightens a
// relaxed atom: the prefix itself for starts, the word for single-word
// contains patterns.
func tightenValue(c *qtree.Constraint) (qtree.Value, bool) {
	switch c.Op {
	case qtree.OpStarts:
		if s, ok := c.Val.(values.String); ok {
			return s, true
		}
	case qtree.OpContains:
		switch v := c.Val.(type) {
		case *values.Pattern:
			if ws := v.Words(); len(ws) == 1 {
				return values.String(ws[0]), true
			}
		case values.String:
			return v, true
		}
	}
	return nil, false
}

// valueCombos enumerates every assignment of n attributes over a domain of
// size dom, as index vectors.
func valueCombos(dom, n int) [][]int {
	total := 1
	for i := 0; i < n; i++ {
		total *= dom
	}
	out := make([][]int, 0, total)
	combo := make([]int, n)
	for i := 0; i < total; i++ {
		cp := make([]int, n)
		copy(cp, combo)
		out = append(out, cp)
		for j := 0; j < n; j++ {
			combo[j]++
			if combo[j] < dom {
				break
			}
			combo[j] = 0
		}
	}
	return out
}

// countLeaves returns the number of leaf nodes in the tree, in-order.
func countLeaves(n *qtree.Node) int {
	if n == nil {
		return 0
	}
	if n.Kind == qtree.KindLeaf {
		return 1
	}
	total := 0
	for _, k := range n.Kids {
		total += countLeaves(k)
	}
	return total
}

// leafAt returns the i-th leaf in-order, or nil.
func leafAt(n *qtree.Node, i int) *qtree.Node {
	leaf, _ := leafAtRec(n, i)
	return leaf
}

func leafAtRec(n *qtree.Node, i int) (*qtree.Node, int) {
	if n.Kind == qtree.KindLeaf {
		if i == 0 {
			return n, -1
		}
		return nil, i - 1
	}
	for _, k := range n.Kids {
		var leaf *qtree.Node
		leaf, i = leafAtRec(k, i)
		if leaf != nil {
			return leaf, -1
		}
		if i < 0 {
			return nil, -1
		}
	}
	return nil, i
}

// replaceLeafAt returns a copy of the tree with the i-th leaf (in-order)
// replaced by repl.
func replaceLeafAt(n *qtree.Node, i int, repl *qtree.Node) *qtree.Node {
	out, _ := replaceLeafRec(n, i, repl)
	return out
}

func replaceLeafRec(n *qtree.Node, i int, repl *qtree.Node) (*qtree.Node, int) {
	if n.Kind == qtree.KindLeaf {
		if i == 0 {
			return repl, -1
		}
		return n, i - 1
	}
	if len(n.Kids) == 0 {
		return n, i
	}
	kids := make([]*qtree.Node, len(n.Kids))
	copy(kids, n.Kids)
	for j, k := range n.Kids {
		if i < 0 {
			break
		}
		kids[j], i = replaceLeafRec(k, i, repl)
	}
	return &qtree.Node{Kind: n.Kind, Kids: kids}, i
}

// renderRelation renders a relation's tuples sorted and newline-joined —
// the byte-identity representation the oracles compare.
func renderRelation(r *engine.Relation) string {
	keys := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		keys[i] = t.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
