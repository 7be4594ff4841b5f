package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/mediator"
	"repro/internal/qparse"
)

// fact is what a timed request leaves behind: which pool query it sent and
// the length of what came back (answer tuples, or translated sources).
type fact struct {
	pool int32
	n    int32
}

// checker collects cheap facts while requests are timed and compares them
// with reference results from an uncached mediator afterwards. It keeps the
// full result of the first request per checked pool query, for one
// byte-for-byte comparison each.
type checker struct {
	sys *system
	// every: only pool indices divisible by every keep a full result
	// (1 for catalog-union; translateSample for translate-fresh).
	every   int
	claimed []atomic.Bool
	kept    []any // written once by the claimer, read after the phases end
	// tr, when non-nil, records a span around each public call of a send.
	tr *tracer

	mu sync.Mutex
	tally
}

// tally is what one client saw: the facts of its successful requests, and
// how many it attempted and how many failed.
type tally struct {
	facts     []fact
	attempted int
	failed    int
	firstErr  error
}

// record counts one request's outcome; it reports whether it succeeded.
func (t *tally) record(f fact, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return false
	}
	t.facts = append(t.facts, f)
	return true
}

func newChecker(sys *system) *checker {
	every := 1
	if sys.kind == callTranslate {
		every = translateSample
	}
	return &checker{
		sys:     sys,
		every:   every,
		claimed: make([]atomic.Bool, len(sys.pool)),
		kept:    make([]any, len(sys.pool)),
	}
}

// send parses request i's text and sends it through the server. It returns
// the request's fact; res is kept when this is the first checked request
// for its pool query.
func (c *checker) send(ctx context.Context, i int) (fact, error) {
	return c.sendPool(ctx, i, c.sys.poolIndex(i))
}

// sendPool sends pool query p as request req. With a tracer it also
// records spans around qparse.Parse, Node.CanonicalKey and the Server
// call; the source executors add their own.
func (c *checker) sendPool(ctx context.Context, req, p int) (fact, error) {
	f := fact{pool: int32(p), n: -1}
	tr := c.tr
	tr.begin(req)
	start := tr.now()
	q, err := qparse.Parse(c.sys.pool[p])
	start = tr.mark(req, layerParse, start)
	if err != nil {
		return f, err
	}
	var misses uint64
	if tr != nil {
		_ = q.CanonicalKey()
		tr.mark(req, layerKey, start)
		misses = c.sys.srv.Translator().Misses()
		start = tr.now()
	}
	res, err := c.sys.call(ctx, q)
	if err == nil {
		f.n = int32(resultLen(res))
	}
	if tr != nil {
		end := tr.now()
		miss := c.sys.srv.Translator().Misses() != misses
		tr.add(span{req: int32(req), layer: layerCall, miss: miss, n: max(f.n, 0), start: start, end: end})
	}
	if err != nil {
		return f, err
	}
	c.keep(p, res)
	return f, nil
}

// keep stores res as pool query p's full result if p is checked in full
// and no request has claimed it yet.
func (c *checker) keep(p int, res any) {
	if p%c.every == 0 && c.claimed[p].CompareAndSwap(false, true) {
		c.kept[p] = res
	}
}

// add merges one client's tally.
func (c *checker) add(t *tally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.facts = append(c.facts, t.facts...)
	c.attempted += t.attempted
	c.failed += t.failed
	if c.firstErr == nil {
		c.firstErr = t.firstErr
	}
}

// resultLen is the cheap fact of a result: answer tuples, or the number of
// per-source translations.
func resultLen(res any) int {
	switch r := res.(type) {
	case *engine.Relation:
		return r.Len()
	case *mediator.Translation:
		return len(r.Sources)
	}
	return -1
}

// render is a result's full form, compared byte for byte.
func render(res any) string {
	var b strings.Builder
	switch r := res.(type) {
	case *engine.Relation:
		for _, t := range r.Tuples {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	case *mediator.Translation:
		// The server's translation cache answers a query with the cached
		// translation of any permutation of it, so translations compare in
		// canonical form.
		for _, st := range r.Sources {
			fmt.Fprintf(&b, "%s: %s | residue %s\n", st.Source.Name, st.Query.CanonicalKey(), st.Residue.CanonicalKey())
		}
		fmt.Fprintf(&b, "filter %s\n", r.Filter.CanonicalKey())
	}
	return b.String()
}

// want is a reference result: its length and its full rendering.
type want struct {
	n    int
	text string
}

// references computes reference results from an uncached mediator on
// demand, once per pool query. Systems built from the same seed share them.
type references struct {
	sys  *system
	ref  *mediator.Mediator
	memo map[int]want
}

func newReferences(sys *system) *references {
	return &references{sys: sys, ref: sys.newRef(), memo: make(map[int]want)}
}

// get returns the reference result of pool query p.
func (r *references) get(p int) want {
	if w, ok := r.memo[p]; ok {
		return w
	}
	q := qparse.MustParse(r.sys.pool[p])
	var res any
	var err error
	switch r.sys.kind {
	case callQuery:
		res, _, err = r.ref.ExecuteUnion(q, r.sys.data)
	default:
		res, err = r.ref.Translate(q)
	}
	w := want{n: -1, text: fmt.Sprintf("error: %v", err)}
	if err == nil {
		w = want{n: resultLen(res), text: render(res)}
	}
	r.memo[p] = w
	return w
}

// verify compares every fact's length and every kept result with the
// reference. It returns the number of wrong results and a description of
// the first one.
func (c *checker) verify(refs *references) (wrong int, first string) {
	miss := func(format string, args ...any) {
		wrong++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for _, f := range c.facts {
		var n int
		if c.sys.kind == callTranslate {
			// Translations are checked in full on the sampled pool
			// queries only; every one must cover every source.
			n = len(refs.ref.Sources)
		} else {
			n = refs.get(int(f.pool)).n
		}
		if int(f.n) != n {
			miss("pool query %d %q: %d results, want %d", f.pool, c.sys.pool[f.pool], f.n, n)
		}
	}
	for p, res := range c.kept {
		if res == nil {
			continue
		}
		// A kept result of the wrong length already failed above.
		if got, w := render(res), refs.get(p); got != w.text && resultLen(res) == w.n {
			miss("pool query %d %q: answer differs from the uncached mediator's\n got: %.300s\nwant: %.300s",
				p, c.sys.pool[p], got, w.text)
		}
	}
	return wrong, first
}
