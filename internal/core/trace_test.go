package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/qparse"
	"repro/internal/sources"
)

func TestTraceRecordsDerivation(t *testing.T) {
	trace := &core.Trace{}
	tr := core.NewTranslator(sources.NewAmazon().Spec, core.WithTrace(trace))

	q := qparse.MustParse(`[pyear = 1997] and ([pmonth = 5] or [pmonth = 6])`)
	if _, err := tr.TDQM(q); err != nil {
		t.Fatal(err)
	}

	kinds := make(map[core.TraceEventKind]int)
	for _, e := range trace.Events {
		kinds[e.Kind]++
	}
	if kinds[core.TracePartition] != 1 {
		t.Errorf("partition events = %d, want 1", kinds[core.TracePartition])
	}
	if kinds[core.TraceRewrite] != 1 {
		t.Errorf("rewrite events = %d, want 1", kinds[core.TraceRewrite])
	}
	if kinds[core.TraceSCM] != 2 {
		t.Errorf("SCM events = %d, want 2 (one per rewritten disjunct)", kinds[core.TraceSCM])
	}
	if kinds[core.TraceMatchSuppressed] != 2 {
		t.Errorf("suppressed events = %d, want 2 (R7 per disjunct)", kinds[core.TraceMatchSuppressed])
	}
	text := trace.String()
	for _, want := range []string{"rule R6", "rule R7", "disjunctivize", "pdate during May/97"} {
		if !strings.Contains(text, want) {
			t.Errorf("trace output missing %q:\n%s", want, text)
		}
	}
}

func TestTraceOffByDefault(t *testing.T) {
	q := qparse.MustParse(`[pyear = 1997] and [pmonth = 5]`)
	trace := &core.Trace{}
	traced := core.NewTranslator(sources.NewAmazon().Spec, core.WithTrace(trace))
	// A translator built without a trace collects nothing, even into a
	// trace another translator over the same spec holds.
	if _, err := amazonTranslator().TDQM(q); err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) != 0 {
		t.Errorf("untraced translator collected %d events", len(trace.Events))
	}
	if _, err := traced.TDQM(q); err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) == 0 {
		t.Error("traced translator collected no events")
	}
}

func TestTraceIdenticalResults(t *testing.T) {
	q := qparse.MustParse(
		`(([ln = "Smith"] and [fn = "John"]) or [kwd contains web]) and [pyear = 1997]`)
	plain := core.NewTranslator(sources.NewAmazon().Spec)
	got1, err := plain.TDQM(q)
	if err != nil {
		t.Fatal(err)
	}
	traced := core.NewTranslator(sources.NewAmazon().Spec, core.WithTrace(&core.Trace{}))
	got2, err := traced.TDQM(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got1.EqualCanonical(got2) {
		t.Errorf("tracing changed the translation:\n%s\nvs\n%s", got1, got2)
	}
}
