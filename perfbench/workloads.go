package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/sources"
	synth "repro/internal/workload"
)

// Workload sizes. They are recorded in BENCHMARK.json's "why" lines and in
// perfbench/README.md; change them only in a change that redefines the
// benchmark.
const (
	catalogBooks    = 4000    // books in the shared Amazon/Clbooks catalog
	catalogPool     = 64      // distinct catalog queries; fits the 1024-entry translation cache
	freshPool       = 1 << 15 // random query texts for translate-fresh, not deduplicated
	streamLen       = 1 << 16 // request-stream length before it wraps
	freshWarm       = 4096    // translate-fresh warm-up requests
	freshBlock      = 2048    // translate-fresh open-loop latency block
	sourceTimeout   = 10 * time.Second
	translateSample = 64 // translate-fresh: every 64th pool query is checked in full
)

// callKind is the public Server call a workload's requests go through.
type callKind int

const (
	callQuery     callKind = iota // Server.Query (union integration)
	callTranslate                 // Server.Translate (the /translate operation)
)

// workload is one traffic mix: how to build its system from a seed.
type workload struct {
	name string
	// build generates the data from seed and constructs the mediator and
	// server the way cmd/mediatord does with default flags; setup_s times
	// it. exec, when non-nil, replaces the server's executor (tracing and
	// planted defects); plant selects a planted defect. The request stream
	// is drawn afterwards, untimed, by system.drawInputs.
	build func(seed int64, exec serve.SourceExecutor, plant string) *system
	// traceOpsPerSec sizes the traced run: --seconds times this many
	// requests, a fixed count so counters repeat exactly for a seed.
	traceOpsPerSec int
}

var workloads = []*workload{
	{name: "catalog-union", build: buildCatalog, traceOpsPerSec: 10},
	{name: "translate-fresh", build: buildFresh, traceOpsPerSec: 1000},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// system is one built mediator and server plus the generated inputs.
type system struct {
	kind callKind
	srv  *serve.Server
	reg  *obs.Registry
	// newRef builds an uncached mediator over the same sources: no plan, no
	// matchings cache, no metrics, no indexes. It produces the reference
	// answers and the uncached translation times, outside set-up time.
	newRef func() *mediator.Mediator
	data   map[string]*engine.Relation
	// draw generates the request stream over the built data with rng.
	draw func(rng *rand.Rand) (pool []string, seq []int32)
	// pool holds the query texts; seq maps request index → pool index.
	// Request i sends pool[seq[(start+i) % len(seq)]].
	pool  []string
	seq   []int32
	start int
	// warm is the number of pool entries sent once, in order, before any
	// timed phase.
	warm int
}

// drawInputs draws the request stream of seed. It runs after the timed
// build, so setup_s does not include the benchmark's own query generator.
func (s *system) drawInputs(seed int64) {
	s.pool, s.seq = s.draw(rand.New(rand.NewSource(seed)))
}

// block is the number of consecutive open-loop requests whose median
// latency is one sample of latency_p50_ms. On catalog-union it is one
// pass over the pool, since the stream sends the pool in whole passes.
func (s *system) block() int {
	if s.kind == callTranslate {
		return freshBlock
	}
	return len(s.pool)
}

// poolIndex returns the pool index request i sends.
func (s *system) poolIndex(i int) int { return int(s.seq[(s.start+i)%len(s.seq)]) }

// call sends one parsed query through the workload's public Server call.
// The result is the answer relation or the translation.
func (s *system) call(ctx context.Context, q *qtree.Node) (any, error) {
	switch s.kind {
	case callQuery:
		return s.srv.Query(ctx, q)
	default:
		return s.srv.Translate(ctx, q)
	}
}

// newServer mirrors cmd/mediatord's newServer: a zero serve.Config apart
// from SourceTimeout and Metrics, with translation metrics on the mediator.
func newServer(med *mediator.Mediator, data map[string]*engine.Relation, exec serve.SourceExecutor) (*serve.Server, *obs.Registry) {
	reg := obs.NewRegistry()
	obs.RegisterGoRuntime(reg)
	med.Metrics = obs.NewTranslationMetrics(reg)
	srv := serve.New(med, data, serve.Config{
		SourceTimeout: sourceTimeout,
		Metrics:       reg,
		Executor:      exec,
	})
	return srv, reg
}

// shuffledSeq draws a request stream over a pool of n queries made of
// consecutive seeded permutations of the pool.
func shuffledSeq(rng *rand.Rand, n int) []int32 {
	seq := make([]int32, 0, streamLen+n)
	for len(seq) < streamLen {
		for _, p := range rng.Perm(n) {
			seq = append(seq, int32(p))
		}
	}
	return seq[:streamLen]
}

// uniquePool draws perTemplate distinct query texts from each template in
// turn. Every seed's pool then holds each template equally often: template
// costs differ severalfold, so a mix that varied with the seed would move
// the workload's mean cost with it.
func uniquePool(perTemplate int, templates []func() string) []string {
	seen := make(map[string]bool)
	var pool []string
	for _, gen := range templates {
		for n, tries := 0, 0; n < perTemplate; tries++ {
			if tries > 100*perTemplate {
				panic("perfbench: query generator cannot produce enough distinct queries")
			}
			if q := gen(); !seen[q] {
				seen[q] = true
				pool = append(pool, q)
				n++
			}
		}
	}
	return pool
}

// buildCatalog is the mediatord bookstore: Amazon and Clbooks over one
// generated catalog, with mediatord's equality indexes.
func buildCatalog(seed int64, exec serve.SourceExecutor, plant string) *system {
	books := sources.GenBooks(seed, catalogBooks)
	catalog := sources.BookRelation("catalog", books)
	data := map[string]*engine.Relation{"amazon": catalog, "clbooks": catalog}
	med := mediator.New(sources.NewAmazon(), sources.NewClbooks())
	med.Indexes = map[string]engine.IndexSet{
		"amazon":  engine.BuildIndexes(catalog, "publisher", "isbn", "subject"),
		"clbooks": engine.BuildIndexes(catalog, "publisher"),
	}
	plantTranslator(med, plant)
	srv, reg := newServer(med, data, exec)
	return &system{
		kind: callQuery, srv: srv, reg: reg,
		newRef: func() *mediator.Mediator { return mediator.New(sources.NewAmazon(), sources.NewClbooks()) },
		data:   data, warm: catalogPool,
		draw: func(rng *rand.Rand) ([]string, []int32) { return catalogInputs(rng, books) },
	}
}

// catalogInputs draws the catalog query pool from the books and a stream
// that sends each pool query equally often. Query costs differ by an order
// of magnitude between templates and instances, so under a skewed stream the
// few queries a seed puts at the head would set the median latency.
func catalogInputs(rng *rand.Rand, books []sources.Book) ([]string, []int32) {
	book := func() sources.Book { return books[rng.Intn(len(books))] }
	word := func(b sources.Book) string {
		ws := strings.Fields(b.Title)
		return ws[rng.Intn(len(ws))]
	}
	author := func(b sources.Book) string {
		if b.Fn == "" {
			return fmt.Sprintf(`[ln = %q]`, b.Ln)
		}
		return fmt.Sprintf(`[ln = %q] and [fn = %q]`, b.Ln, b.Fn)
	}
	templates := []func() string{
		func() string { return author(book()) },
		func() string { return fmt.Sprintf(`[ln = %q]`, book().Ln) },
		func() string {
			ws := strings.Fields(book().Title)
			return fmt.Sprintf(`[ti contains %s(near)%s]`, ws[0], ws[1])
		},
		func() string {
			b := book()
			return fmt.Sprintf(`[pyear = %d] and [pmonth = %d]`, b.Year, b.Month)
		},
		func() string {
			b := book()
			return fmt.Sprintf(`[publisher = %q] and [kwd contains %s]`, b.Publisher, word(b))
		},
		func() string {
			b1, b2 := book(), book()
			return fmt.Sprintf(`([ln = %q] or [ln = %q]) and [pyear = %d]`, b1.Ln, b2.Ln, b1.Year)
		},
		func() string {
			b1, b2 := book(), book()
			return fmt.Sprintf(`((%s) or [kwd contains %s]) and [pyear = %d]`, author(b1), word(b2), b1.Year)
		},
		func() string { return fmt.Sprintf(`[kwd contains %s]`, word(book())) },
	}
	pool := uniquePool(catalogPool/len(templates), templates)
	return pool, shuffledSeq(rng, len(pool))
}

// freshScenario is the §8 synthetic scenario: pairs, inexact pairs and a
// triple give dependency degree e > 0.
var freshScenario = synth.Config{Indep: 6, Pairs: 3, InexactPairs: 2, Triples: 1}

// buildFresh is the translate-only workload over seeded random depth-3
// query trees; the pool exceeds the translation cache, plan and matchings
// cache, so most requests translate afresh.
func buildFresh(seed int64, exec serve.SourceExecutor, plant string) *system {
	sc := synth.New(freshScenario)
	newMed := func() *mediator.Mediator {
		med := mediator.New(
			&sources.Source{Name: "w1", Spec: sc.Spec, Eval: sc.Eval},
			&sources.Source{Name: "w2", Spec: sc.Spec, Eval: sc.Eval},
		)
		med.Eval = sc.Eval
		return med
	}
	med := newMed()
	plantTranslator(med, plant)
	data := map[string]*engine.Relation{"w1": engine.NewRelation("w1"), "w2": engine.NewRelation("w2")}
	srv, reg := newServer(med, data, exec)
	return &system{
		kind: callTranslate, srv: srv, reg: reg, newRef: newMed,
		data: data, start: freshWarm, warm: freshWarm,
		draw: func(rng *rand.Rand) ([]string, []int32) { return freshInputs(rng, sc) },
	}
}

// freshInputs draws freshPool random query trees, sent once each in order.
// The pool is not deduplicated: single-leaf draws repeat (the scenario has
// few distinct leaves) and stay in the translation cache, while the deeper
// trees are almost all new.
func freshInputs(rng *rand.Rand, sc *synth.Scenario) ([]string, []int32) {
	cfg := synth.QueryConfig{MaxDepth: 3, MaxFanout: 3, LeafProb: 0.4}
	pool := make([]string, freshPool)
	for i := range pool {
		pool[i] = sc.RandomQuery(rng, cfg).String()
	}
	seq := make([]int32, len(pool))
	for i := range seq {
		seq[i] = int32(i)
	}
	return pool, seq
}

// Planted defects: the benchmark must report them as failures.
const (
	plantNone     = ""
	plantDrop     = "drop-tuple"      // executor drops one tuple per answer
	plantTrueSpec = "true-translator" // every source translates to True
)

// plantTranslator installs the true-translator defect: each source keeps
// its name, target and evaluator but loses every rule, so every query
// translates to True.
func plantTranslator(med *mediator.Mediator, plant string) {
	if plant != plantTrueSpec {
		return
	}
	for i, src := range med.Sources {
		empty := rules.MustSpec(src.Spec.Name, src.Spec.Target, src.Spec.Reg)
		med.Sources[i] = &sources.Source{Name: src.Name, Spec: empty, Eval: src.Eval}
	}
}

// dropTuple wraps exec so that every non-empty selection loses its first
// tuple.
func dropTuple(exec serve.SourceExecutor) serve.SourceExecutor {
	return func(ctx context.Context, source string, rel *engine.Relation, q *qtree.Node, ev *engine.Evaluator, ix engine.IndexSet, acc *engine.Access) (*engine.Relation, error) {
		out, err := exec(ctx, source, rel, q, ev, ix, acc)
		if err != nil || out.Len() == 0 {
			return out, err
		}
		return engine.NewRelation(out.Name, out.Tuples[1:]...), nil
	}
}
