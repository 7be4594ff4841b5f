package core

import (
	"fmt"
	"strings"

	"repro/internal/qtree"
	"repro/internal/rules"
)

// TraceEventKind classifies trace events.
type TraceEventKind int

const (
	// TraceSCM records an Algorithm SCM invocation.
	TraceSCM TraceEventKind = iota
	// TraceMatchKept records a matching retained after suppression.
	TraceMatchKept
	// TraceMatchSuppressed records a suppressed submatching.
	TraceMatchSuppressed
	// TracePartition records an Algorithm PSafe partition.
	TracePartition
	// TraceRewrite records a Disjunctivize structure rewriting.
	TraceRewrite
)

func (k TraceEventKind) String() string {
	switch k {
	case TraceSCM:
		return "scm"
	case TraceMatchKept:
		return "match"
	case TraceMatchSuppressed:
		return "suppressed"
	case TracePartition:
		return "partition"
	case TraceRewrite:
		return "rewrite"
	default:
		return fmt.Sprintf("TraceEventKind(%d)", int(k))
	}
}

// TraceEvent is one step in a translation derivation.
type TraceEvent struct {
	Kind   TraceEventKind
	Detail string
}

// Trace collects the derivation steps of a translation, for explanation
// output (qmap -explain) and debugging of rule sets.
type Trace struct {
	Events []TraceEvent
}

// add appends an event.
func (t *Trace) add(kind TraceEventKind, format string, args ...any) {
	t.Events = append(t.Events, TraceEvent{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// String renders the trace, one step per line.
func (t *Trace) String() string {
	var b strings.Builder
	for _, e := range t.Events {
		fmt.Fprintf(&b, "%-11s %s\n", e.Kind.String()+":", e.Detail)
	}
	return b.String()
}

// traceSCM records an SCM invocation with its retained and suppressed
// matchings.
func (t *Translator) traceSCM(cs []*qtree.Constraint, all, kept []*rules.Matching) {
	if t.trace == nil {
		return
	}
	conj := qtree.NewConstraintSet(cs...).Conjunction()
	t.trace.add(TraceSCM, "translate simple conjunction %s", conj)
	keptIDs := make(map[string]bool, len(kept))
	for _, m := range kept {
		keptIDs[m.ID()] = true
		t.trace.add(TraceMatchKept, "rule %s matched %s -> %s", m.Rule.Name, m.Set, m.Emission)
	}
	for _, m := range all {
		if !keptIDs[m.ID()] {
			t.trace.add(TraceMatchSuppressed, "rule %s matching %s (submatching of a larger one)",
				m.Rule.Name, m.Set)
		}
	}
}

// tracePartition records a PSafe partition.
func (t *Translator) tracePartition(conjuncts []*qtree.Node, p *Partition) {
	if t.trace == nil {
		return
	}
	parts := make([]string, len(conjuncts))
	for i, c := range conjuncts {
		parts[i] = c.String()
	}
	t.trace.add(TracePartition, "conjuncts [%s] partitioned %s (%d cross-matchings)",
		strings.Join(parts, " | "), p, p.CrossMatchings)
}

// traceRewrite records a local Disjunctivize.
func (t *Translator) traceRewrite(block []*qtree.Node, result *qtree.Node) {
	if t.trace == nil {
		return
	}
	parts := make([]string, len(block))
	for i, c := range block {
		parts[i] = c.String()
	}
	t.trace.add(TraceRewrite, "disjunctivize block [%s] -> %s", strings.Join(parts, " | "), result)
}
