package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// tally is what one client observed in one phase.
type tally struct {
	ops, failed int
	rows        int
	matchings   int
	op          durations // the workload's operation (README.md says which)
	query       durations // every /query, send to trailer
	load        durations // every /load
	ttfr        durations // /query send to first line
	firstErr    error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.rows += o.rows
	t.matchings += o.matchings
	t.op = append(t.op, o.op...)
	t.query = append(t.query, o.query...)
	t.load = append(t.load, o.load...)
	t.ttfr = append(t.ttfr, o.ttfr...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// until decides when a client's loop ends: a deadline for the timed
// window, an operation count for the traced passes (so counts repeat).
type until struct {
	deadline time.Time
	count    int
}

func (u until) done(ctx context.Context, ops int) bool {
	if ctx.Err() != nil {
		return true
	}
	if u.count > 0 {
		return ops >= u.count
	}
	return !time.Now().Before(u.deadline)
}

// looper is one client's share of a workload; state it carries (cycle
// counters, RNG) survives from the warm-up phase into the timed one.
type looper interface {
	loop(ctx context.Context, u until, t *tally)
	// draw returns the next operation without sending it: the body to
	// load ("" on a read-only workload) and the query that follows.
	draw() (body string, q queryOp)
	// sent returns what a traced run's loop has sent so far; one of the
	// two is nil.
	sent() ([]queryOp, []writeOp)
}

// fullCheckEvery is how often a response has every row verified
// against the model rather than just counted.
const fullCheckEvery = 100

// ---- point_read and join_stream ----

// readLooper issues whatever next draws: fresh random point queries
// for point_read, the three fixed shapes in rotation for join_stream.
type readLooper struct {
	c    *client
	m    *model
	next func() queryOp
	n    int
	keep bool // traced runs keep what was sent, for the layer replay
	kept []queryOp
}

func (l *readLooper) draw() (string, queryOp)      { return "", l.next() }
func (l *readLooper) sent() ([]queryOp, []writeOp) { return l.kept, nil }

func (l *readLooper) loop(ctx context.Context, u until, t *tally) {
	for !u.done(ctx, t.ops) {
		op := l.next()
		l.n++
		if l.keep {
			l.kept = append(l.kept, op)
		}
		a, err := l.c.expect(ctx, l.m, op, l.n%fullCheckEvery == 0, false)
		t.ops++
		if err != nil {
			t.fail(err)
			continue
		}
		t.rows += a.rows
		t.matchings += a.trailer.Matchings
		t.op = append(t.op, a.total)
		t.query = append(t.query, a.total)
		t.ttfr = append(t.ttfr, a.ttfr)
	}
}

// ---- write_read ----

type writeLooper struct {
	c         *client
	m         *model
	rng       *rand.Rand
	id        int
	n         int
	snapEvery int  // client 0 checkpoints every so many cycles; 0 for never
	keep      bool // traced runs keep what was sent, for the layer replay
	kept      []writeOp
}

func (l *writeLooper) draw() (string, queryOp) {
	w := l.next()
	return w.body, w.query
}

func (l *writeLooper) sent() ([]queryOp, []writeOp) { return nil, l.kept }

// writeOp is one write_read cycle: the load body, the query for the
// subject it wrote and the rows that query must return.
type writeOp struct {
	body    string
	triples int
	query   queryOp
	classes map[string]bool // derived typings the answer must carry
}

const batchEvery, batchSize = 5, 20

// next draws the cycle's write: one triple, or every fifth cycle a
// batch of twenty, alternating a fresh unconstrained predicate with a
// schema property whose domain declarations derive typings.
func (l *writeLooper) next() writeOp {
	l.n++
	k := 1
	if l.n%batchEvery == 0 {
		k = batchSize
	}
	subj := fmt.Sprintf("<urn:bench:w:%d:%d>", l.id, l.n)
	w := writeOp{triples: k, classes: map[string]bool{}}
	pred, rowsPer := fmt.Sprintf("<urn:bench:fresh:%d:%d>", l.id, l.n), 1
	if l.n%2 == 0 {
		p := l.rng.Intn(len(l.m.props.list))
		pred, rowsPer = iri(l.m.props.list[p]), len(l.m.propUp[p])
		set := map[int]bool{}
		l.m.linkTypes(p, l.m.dom, set)
		for c := range set {
			w.classes[iri(l.m.classes.list[c])] = true
		}
	}
	seen := map[int]bool{}
	for len(seen) < k {
		o := l.rng.Intn(len(l.m.inds.list))
		if !seen[o] {
			seen[o] = true
			w.body += subj + " " + pred + " " + iri(l.m.inds.list[o]) + " .\n"
		}
	}
	w.query = newOp("written", 0, k*rowsPer+len(w.classes), pattern{subj, "?P", "?O"})
	return w
}

func (l *writeLooper) loop(ctx context.Context, u until, t *tally) {
	for !u.done(ctx, t.ops) {
		w := l.next()
		if l.keep {
			l.kept = append(l.kept, w)
		}
		start := time.Now()
		_, ld, err := l.c.load(ctx, w.body)
		t.ops++
		// The response's "added" is a before/after difference that a
		// concurrent writer skews, so the read below is the check.
		if err != nil {
			t.fail(err)
			continue
		}
		// Read your write: the answer must hold the triple(s) just
		// loaded and exactly the typings the schema derives from them.
		a, err := l.c.expect(ctx, l.m, w.query, false, true)
		if err == nil {
			err = w.checkTypings(a.bindings)
		}
		if err != nil {
			t.fail(err)
			continue
		}
		t.op = append(t.op, time.Since(start))
		t.load = append(t.load, ld)
		t.query = append(t.query, a.total)
		t.ttfr = append(t.ttfr, a.ttfr)
		t.rows += a.rows
		t.matchings += a.trailer.Matchings
		if l.snapEvery > 0 && l.n%l.snapEvery == 0 {
			if _, _, err := l.c.snapshot(ctx); err != nil {
				t.fail(err)
			}
		}
	}
}

// checkTypings verifies the derived typings among the answer's rows.
func (w writeOp) checkTypings(rows []map[string]string) error {
	typings := 0
	for _, b := range rows {
		if b["P"] != typeIRI {
			continue
		}
		typings++
		if !w.classes[b["O"]] {
			return fmt.Errorf("written subject typed %s, which the schema does not derive", b["O"])
		}
	}
	if typings != len(w.classes) {
		return fmt.Errorf("written subject has %d typings, schema derives %d", typings, len(w.classes))
	}
	return nil
}
