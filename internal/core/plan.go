package core

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/qtree"
	"repro/internal/rules"
)

// Plan is the dynamic half of translation-plan compilation: a spec-keyed,
// bounded LRU of translation fragments shared across translations,
// translators, and requests. Where the MatchCache reuses rule-matching
// results, the Plan reuses the *derived* work built on top of them — whole
// TDQM subtree translations, PSafe safe-block partitions, EDNF essential
// DNFs, and SCM results — looked up by exact query shape, so a repeated
// shape pays its EDNF/PSafe tree rewriting once per spec rather than once
// per request (the laconic-mappings precomputation idea, applied at the
// request tier).
//
// Every entry carries, besides its payload, the exact Stats delta and the
// cumulative-metrics activity of the run that recorded it. A hit replays
// both, so Stats and TranslationMetrics are indistinguishable plan-on vs
// plan-off — the same hit-compensation discipline the memo and MatchCache
// established, one level up. Under tracing, lookups are bypassed (every
// algorithm step must emit its spans) but completed fragments are still
// recorded: bypass-or-record keeps golden traces byte-identical while
// warming the plan for untraced traffic.
//
// Keying and invalidation: entries are keyed by (spec identity, kind-tagged
// shape key); shape keys are exact renderings, not canonical forms, so a
// hit replays precisely the translation the same input would have produced.
// Specs are immutable after first use (see rules.Spec), so entries only
// leave by LRU eviction or Invalidate. Payloads are shared between
// translations and must be treated as immutable.
//
// Concurrency: safe for concurrent use; the key space is sharded exactly
// like the MatchCache, with per-shard mutex+LRU and shared atomic counters.
type Plan struct {
	shards []planShard
	seed   maphash.Seed

	hits, misses, evictions atomic.Uint64
}

// DefaultPlanSize is the capacity used when NewPlan is given a non-positive
// capacity. Plan entries are heavier than match-cache entries (they hold
// whole translated subtrees), so the default is smaller.
const DefaultPlanSize = 2048

// planShards is the shard count for large plans; smaller plans collapse to
// one shard so the configured capacity is exact.
const planShards = 16

type planShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List                // front = most recently used
	items map[planKey]*list.Element // key → element whose Value is *planItem
}

// planKey scopes a kind-tagged shape key to one spec identity.
type planKey struct {
	spec *rules.Spec
	key  string
}

type planItem struct {
	key   planKey
	entry *planEntry
}

// planEntry is one cached translation fragment. Exactly one payload field
// is set, according to the key's kind tag: node for TDQM subtrees ("T|"),
// part for PSafe partitions ("P|"), expr for EDNF results ("E|"), scm for
// SCM results ("S|"). delta, clean, and agg replay the recording run's
// Stats, residue tracking, and cumulative metrics on every hit.
type planEntry struct {
	node *qtree.Node
	part *Partition
	expr DNFExpr
	scm  *SCMResult

	delta Stats
	clean bool
	agg   planAgg
}

// NewPlan returns a plan cache holding up to capacity entries
// (DefaultPlanSize if capacity <= 0).
func NewPlan(capacity int) *Plan {
	if capacity <= 0 {
		capacity = DefaultPlanSize
	}
	n := planShards
	if capacity < planShards {
		n = 1
	}
	p := &Plan{shards: make([]planShard, n), seed: maphash.MakeSeed()}
	for i := range p.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		if per < 1 {
			per = 1
		}
		p.shards[i] = planShard{
			cap:   per,
			ll:    list.New(),
			items: make(map[planKey]*list.Element, per),
		}
	}
	return p
}

func (p *Plan) shardFor(key string) *planShard {
	if len(p.shards) == 1 {
		return &p.shards[0]
	}
	return &p.shards[maphash.String(p.seed, key)%uint64(len(p.shards))]
}

// get returns the entry for (spec, key), promoting it and counting a hit; a
// failed lookup counts a miss.
func (p *Plan) get(spec *rules.Spec, key string) (*planEntry, bool) {
	sh := p.shardFor(key)
	sh.mu.Lock()
	el, ok := sh.items[planKey{spec: spec, key: key}]
	if !ok {
		sh.mu.Unlock()
		p.misses.Add(1)
		return nil, false
	}
	sh.ll.MoveToFront(el)
	e := el.Value.(*planItem).entry
	sh.mu.Unlock()
	p.hits.Add(1)
	return e, true
}

// put inserts (or refreshes) the entry for (spec, key), evicting least
// recently used entries beyond the shard's capacity.
func (p *Plan) put(spec *rules.Spec, key string, e *planEntry) {
	k := planKey{spec: spec, key: key}
	sh := p.shardFor(key)
	sh.mu.Lock()
	if el, ok := sh.items[k]; ok {
		sh.ll.MoveToFront(el)
		el.Value.(*planItem).entry = e
		sh.mu.Unlock()
		return
	}
	sh.items[k] = sh.ll.PushFront(&planItem{key: k, entry: e})
	evicted := 0
	for sh.ll.Len() > sh.cap {
		oldest := sh.ll.Back()
		sh.ll.Remove(oldest)
		delete(sh.items, oldest.Value.(*planItem).key)
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		p.evictions.Add(uint64(evicted))
	}
}

// noteBypass records a tracing-mode bypass as a miss, keeping hits+misses
// equal to the number of plan consultations.
func (p *Plan) noteBypass() { p.misses.Add(1) }

// Invalidate drops every entry recorded under spec and returns the number
// removed. Specs are immutable, so this is only needed when a spec is
// retired and its entries should stop occupying capacity.
func (p *Plan) Invalidate(spec *rules.Spec) int {
	removed := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for key, el := range sh.items {
			if key.spec == spec {
				sh.ll.Remove(el)
				delete(sh.items, key)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	return removed
}

// Len returns the number of resident entries across all shards.
func (p *Plan) Len() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// PlanStats is a point-in-time snapshot of a Plan's counters — the only
// observable difference between plan-on and plan-off translation.
type PlanStats struct {
	// Hits counts lookups served from the plan.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that found no entry, including traced lookups
	// that bypassed the plan by design (bypass-or-record).
	Misses uint64 `json:"misses"`
	// Evictions counts entries evicted for capacity.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of resident entries.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the plan's counters.
func (p *Plan) Stats() PlanStats {
	return PlanStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Entries:   p.Len(),
	}
}

// HitRate returns the fraction of lookups served from the plan.
func (s PlanStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// planAgg accumulates the cumulative-metrics activity of one recording
// scope: the counts TranslationMetrics would have been fed. A plan hit
// replays the aggregate (see replay), so qmap_* counters advance exactly as
// they would have on the interpretive path.
type planAgg struct {
	scmCalls           int
	psafeCalls         int
	productTerms       int
	disjunctivizations int
	fired              map[string]int // rule name → retained matchings
	suppressed         map[string]int // rule name → suppressed matchings
}

func (a *planAgg) addFired(rule string, n int) {
	if a.fired == nil {
		a.fired = make(map[string]int)
	}
	a.fired[rule] += n
}

func (a *planAgg) addSuppressed(rule string, n int) {
	if a.suppressed == nil {
		a.suppressed = make(map[string]int)
	}
	a.suppressed[rule] += n
}

// fold accumulates b into a — closing an inner recording scope folds its
// activity into the enclosing one, and merging a parallel branch folds the
// branch's activity into its parent's open scope.
func (a *planAgg) fold(b *planAgg) {
	a.scmCalls += b.scmCalls
	a.psafeCalls += b.psafeCalls
	a.productTerms += b.productTerms
	a.disjunctivizations += b.disjunctivizations
	for r, n := range b.fired {
		a.addFired(r, n)
	}
	for r, n := range b.suppressed {
		a.addSuppressed(r, n)
	}
}

// replay feeds the aggregate into m under the spec's name.
func (a *planAgg) replay(m *obs.TranslationMetrics, spec string) {
	if m == nil {
		return
	}
	m.SCMCallN(spec, a.scmCalls)
	m.PSafeCallN(spec, a.psafeCalls)
	m.ProductTerms(spec, a.productTerms)
	m.DisjunctivizationN(spec, a.disjunctivizations)
	for r, n := range a.fired {
		m.RuleFiredN(spec, r, n)
	}
	for r, n := range a.suppressed {
		m.RuleSuppressedN(spec, r, n)
	}
}

// add folds a recorded delta into the counters — the Stats replay of a plan
// hit, the inverse of the sub a recording takes.
func (s *Stats) add(d Stats) {
	s.SCMCalls += d.SCMCalls
	s.MatchRuns += d.MatchRuns
	s.MatchingsFound += d.MatchingsFound
	s.PSafeCalls += d.PSafeCalls
	s.ProductTerms += d.ProductTerms
	s.Disjunctivizations += d.Disjunctivizations
	s.DNFDisjuncts += d.DNFDisjuncts
	s.RuleAttempts += d.RuleAttempts
}

// Plan returns the attached shared translation plan, or nil.
func (t *Translator) Plan() *Plan { return t.plan }

// planOK reports whether the plan participates in this translator's
// configuration at all. The uncompiled ablation is excluded so its recorded
// costs stay fully interpretive, and the full-DNF ablation is excluded
// because its safety machinery computes different intermediate shapes.
func (t *Translator) planOK() bool {
	return t.plan != nil && !t.compiledOff && !t.fullDNFSafety
}

// planGet looks up a plan entry, honoring the bypass-or-record discipline:
// under tracing the lookup is skipped (and counted as a miss) so every
// algorithm step still runs and emits its spans, while the completed run is
// still recorded for untraced traffic.
func (t *Translator) planGet(key string) *planEntry {
	if t.tracer != nil || t.trace != nil {
		t.plan.noteBypass()
		return nil
	}
	e, ok := t.plan.get(t.Spec, key)
	if !ok {
		return nil
	}
	return e
}

// planApply replays a hit entry's recorded side effects: the Stats delta,
// the residue-cleanliness flag, the cumulative metrics, and — when an
// enclosing recording is open — the activity fold into that scope, so an
// outer fragment recorded around this hit replays correctly later.
func (t *Translator) planApply(e *planEntry) {
	t.Stats.add(e.delta)
	if !e.clean {
		t.residueClean = false
	}
	e.agg.replay(t.metrics, t.Spec.Name)
	if f := t.frameTop(); f != nil {
		f.fold(&e.agg)
	}
}

// frameTop returns the innermost open recording scope, or nil.
func (t *Translator) frameTop() *planAgg {
	if n := len(t.planFrames); n > 0 {
		return t.planFrames[n-1]
	}
	return nil
}

// planRec snapshots the translator state a recording must restore: the
// Stats baseline the delta is taken against, and the caller's residue flag
// (the scope tracks its own cleanliness, then ANDs back).
type planRec struct {
	before     Stats
	savedClean bool
}

// planRecord opens a recording scope for one fragment.
func (t *Translator) planRecord() planRec {
	t.planFrames = append(t.planFrames, &planAgg{})
	rec := planRec{before: t.Stats, savedClean: t.residueClean}
	t.residueClean = true
	return rec
}

// planPop closes the innermost scope, folding its activity into the
// enclosing one.
func (t *Translator) planPop() *planAgg {
	f := t.planFrames[len(t.planFrames)-1]
	t.planFrames = t.planFrames[:len(t.planFrames)-1]
	if top := t.frameTop(); top != nil {
		top.fold(f)
	}
	return f
}

// store completes a recording: it stamps the entry with the scope's Stats
// delta, cleanliness, and metric activity, restores the caller's residue
// flag, and publishes the entry.
func (rec planRec) store(t *Translator, key string, e *planEntry) {
	f := t.planPop()
	e.delta = t.Stats.sub(rec.before)
	e.clean = t.residueClean
	e.agg = *f
	t.residueClean = rec.savedClean && t.residueClean
	t.plan.put(t.Spec, key, e)
}

// abort unwinds a recording scope on error without publishing an entry.
func (rec planRec) abort(t *Translator) {
	t.planPop()
	t.residueClean = rec.savedClean && t.residueClean
}

// Shape keys. Keys render the exact input (not its canonical form): two
// structurally different but equivalent inputs translate to structurally
// different but equivalent outputs, and a plan hit must reproduce exactly
// what the interpretive path would have produced for that input.

func planKeyTDQM(q *qtree.Node) string { return "T|" + q.String() }

func planKeySCM(cs []*qtree.Constraint) string {
	var b strings.Builder
	b.WriteString("S|")
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(c.Key())
	}
	return b.String()
}

func planKeyPSafe(conjuncts []*qtree.Node) string {
	var b strings.Builder
	b.WriteString("P|")
	for i, c := range conjuncts {
		if i > 0 {
			b.WriteString("&&")
		}
		b.WriteString(c.String())
	}
	return b.String()
}

func planKeyEDNF(q *qtree.Node, mp []*qtree.ConstraintSet) string {
	var b strings.Builder
	b.WriteString("E|")
	b.WriteString(q.String())
	b.WriteByte('#')
	for i, m := range mp {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(m.ID())
	}
	return b.String()
}
