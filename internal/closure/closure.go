// Package closure implements the maximal representations of Section 3.1
// of the paper: the closure RDFS-cl(G) of Definition 2.7 (the saturation
// of G under rules (2)–(13)), which is also the semantic closure cl(G)
// of Definition 3.5 (Lemma 3.4, Theorem 3.6(2)), and the
// membership-without-materialization test of Theorem 3.6(4).
//
// One semi-naive engine computes every closure. A full saturation of a
// graph that keeps rdfsV out of subject and object positions runs it on
// the schema triples only and then makes one compiled pass over the
// instance triples (schemafirst.go). Any other graph is saturated by
// the engine over all its triples, and the incremental Maintainer runs
// the engine on each inserted batch.
package closure

import (
	"context"
	"math/rand"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// RDFSCl returns RDFS-cl(G): the set of triples deducible from G using
// rules (2)–(13) (Definition 2.7). The input graph is not modified; the
// result shares its dictionary.
//
// The computation runs over interned term IDs, never comparing a
// string. When no rdfsV term occurs in a subject or object position of
// G — the class of Theorem 3.16, in which Membership also answers
// without materializing — it is schema-first (schemafirst.go): the
// semi-naive engine closes the schema triples alone, then one pass
// over the instance triples emits each one's consequences from
// per-predicate plans compiled from the closed schema, and no derived
// instance triple is processed again. Otherwise the semi-naive engine
// saturates all of G, processing every admitted triple exactly once
// against incrementally maintained ID-keyed indexes. NaiveRDFSCl is
// the round-based baseline (ablation A2).
func RDFSCl(g *graph.Graph) *graph.Graph {
	out, _ := RDFSClCtx(context.Background(), g)
	return out
}

// RDFSClCtx is RDFSCl under a context: the engine and the compiled
// instance pass poll ctx periodically and abort with its error when it
// is cancelled, so closures of large graphs are interruptible.
func RDFSClCtx(ctx context.Context, g *graph.Graph) (*graph.Graph, error) {
	t0 := time.Now()
	e := newEngine(g.Dict())
	schema, ok := e.schemaTriples(g)
	if !ok {
		return e.saturate(ctx, g, t0)
	}
	if err := e.schemaFirst(ctx, g, schema); err != nil {
		return nil, err
	}
	satFull.Inc()
	satSecondsFull.ObserveSince(t0)
	return e.out, nil
}

// rdfsClSequential runs the semi-naive engine on all of g, whatever
// its shape, with an explicit queue drain order (tests use
// FIFO/shuffled to assert the result is order-independent, and compare
// it with the schema-first path).
func rdfsClSequential(ctx context.Context, g *graph.Graph, order queueOrder, rng *rand.Rand) (*graph.Graph, error) {
	t0 := time.Now()
	e := newEngine(g.Dict())
	e.order, e.shuffleRng = order, rng
	return e.saturate(ctx, g, t0)
}

// saturate is the generic full saturation: every triple of g and the
// rule (9) loops are queued and the engine runs to its fixpoint.
func (e *engine) saturate(ctx context.Context, g *graph.Graph, t0 time.Time) (*graph.Graph, error) {
	g.EachID(func(t dict.Triple3) bool {
		e.add(t)
		return true
	})
	e.addVocabularyLoops()
	if err := e.run(ctx); err != nil {
		return nil, err
	}
	satFullGeneric.Inc()
	satSecondsFullGeneric.ObserveSince(t0)
	return e.out, nil
}

// addVocabularyLoops adds rule (9): (p, sp, p) for every p ∈ rdfsV,
// unconditionally.
func (e *engine) addVocabularyLoops() {
	for _, p := range []dict.ID{e.sp, e.sc, e.typ, e.dom, e.rng} {
		e.add(dict.Triple3{p, e.sp, p})
	}
}

// NaiveRDFSCl computes the closure by re-enumerating every rule
// instantiation, round by round, until no new triple appears. It is the
// ablation baseline (A2): the executable transcription of Definition
// 2.7 that rdfs.Saturate also runs for proofs, here recording nothing.
func NaiveRDFSCl(g *graph.Graph) *graph.Graph { return rdfs.Saturate(g, nil) }

// queueOrder selects the order in which the engine drains its work
// queue. The order is an implementation detail: the closure is the
// unique fixpoint of a monotone rule set, so every drain order produces
// the same triple set (TestClosureOrderIndependent asserts this). LIFO
// is the default purely for locality — freshly derived triples tend to
// join against indexes still hot in cache.
type queueOrder int

const (
	lifoOrder queueOrder = iota
	fifoOrder
	shuffledOrder
)

// engine is the semi-naive saturation state, entirely ID-encoded.
type engine struct {
	d   *dict.Dict
	out *graph.Graph

	queue      []dict.Triple3
	order      queueOrder
	shuffleRng *rand.Rand // drives shuffledOrder pops (tests only)

	// Interned rdfsV constants.
	sp, sc, typ, dom, rng dict.ID

	spOut map[dict.ID]map[dict.ID]struct{} // a -> {b : (a,sp,b)}
	spIn  map[dict.ID]map[dict.ID]struct{}
	scOut map[dict.ID]map[dict.ID]struct{}
	scIn  map[dict.ID]map[dict.ID]struct{}

	domOf   map[dict.ID][]dict.ID // A -> {B : (A,dom,B)}
	rangeOf map[dict.ID][]dict.ID

	byPred    map[dict.ID][]dict.Triple3 // predicate -> triples
	typeByObj map[dict.ID][]dict.ID      // class -> {x : (x,type,class)}

	// journaling makes add record every admitted triple in journal —
	// the delta engine's channel for reporting exactly which triples a
	// maintenance round added on top of the seeded base (delta.go).
	journaling bool
	journal    []dict.Triple3

	// Local metric tallies: plain fields, flushed to the process-global
	// counters once per run (metrics.go), never atomics per firing.
	fired   uint64 // add and emit calls — conclusions emitted, duplicates included
	derived uint64 // their admissions — novel triples entering the closure
}

func newEngine(d *dict.Dict) *engine {
	d.InternAll(rdfs.Vocabulary()) // one batch; the Interns below look up
	e := &engine{
		d:         d,
		out:       graph.NewWithDict(d),
		sp:        d.Intern(rdfs.SubPropertyOf),
		sc:        d.Intern(rdfs.SubClassOf),
		typ:       d.Intern(rdfs.Type),
		dom:       d.Intern(rdfs.Domain),
		rng:       d.Intern(rdfs.Range),
		spOut:     make(map[dict.ID]map[dict.ID]struct{}),
		spIn:      make(map[dict.ID]map[dict.ID]struct{}),
		scOut:     make(map[dict.ID]map[dict.ID]struct{}),
		scIn:      make(map[dict.ID]map[dict.ID]struct{}),
		domOf:     make(map[dict.ID][]dict.ID),
		rangeOf:   make(map[dict.ID][]dict.ID),
		byPred:    make(map[dict.ID][]dict.Triple3),
		typeByObj: make(map[dict.ID][]dict.ID),
	}
	return e
}

// canPredicate reports whether the term may occupy predicate position.
// Kinds are resolved through the dictionary directly (one lock-free
// load), which keeps saturation over scratch-overlay dictionaries —
// the premise-evaluation and prepared-universe paths — from ever
// flattening the overlay into a kinds snapshot.
func (e *engine) canPredicate(id dict.ID) bool { return e.d.KindOf(id) == term.KindIRI }

func addEdge(m map[dict.ID]map[dict.ID]struct{}, a, b dict.ID) {
	s, ok := m[a]
	if !ok {
		s = make(map[dict.ID]struct{})
		m[a] = s
	}
	s[b] = struct{}{}
}

// add inserts a triple (if well-formed and new — AddID checks both),
// updates the indexes and enqueues it for processing.
func (e *engine) add(t dict.Triple3) {
	e.fired++
	if !e.out.AddID(t) {
		return
	}
	e.derived++
	if e.journaling {
		e.journal = append(e.journal, t)
	}
	e.indexTriple(t)
	e.queue = append(e.queue, t)
}

// addLoop adds the reflexive (x, pred, x) unless index m (spOut for
// sp, scOut for sc) already holds it. indexTriple runs on every
// admission and every seed, so the probe is exact, and it saves the
// rules that fire a loop per processed triple — (8) and (12) — a probe
// of the much larger dedup set on each firing.
func (e *engine) addLoop(m map[dict.ID]map[dict.ID]struct{}, pred, x dict.ID) {
	if _, ok := m[x][x]; !ok {
		e.add(dict.Triple3{x, pred, x})
	}
}

// seed admits a triple of an already-saturated base: it is deduped,
// validated and indexed like any other, but not queued — firings among
// base triples alone derive nothing new (the base is a fixpoint), so
// only delta triples need processing. Every rule instantiation with at
// least one delta premise still fires, because indexes are consulted
// when the delta premise is processed.
func (e *engine) seed(t dict.Triple3) {
	if !e.out.AddID(t) {
		return
	}
	e.indexTriple(t)
}

// indexTriple folds a triple into the rule-firing indexes.
func (e *engine) indexTriple(t dict.Triple3) {
	e.byPred[t[1]] = append(e.byPred[t[1]], t)
	switch t[1] {
	case e.sp:
		addEdge(e.spOut, t[0], t[2])
		addEdge(e.spIn, t[2], t[0])
	case e.sc:
		addEdge(e.scOut, t[0], t[2])
		addEdge(e.scIn, t[2], t[0])
	case e.dom:
		e.domOf[t[0]] = append(e.domOf[t[0]], t[2])
	case e.rng:
		e.rangeOf[t[0]] = append(e.rangeOf[t[0]], t[2])
	case e.typ:
		e.typeByObj[t[2]] = append(e.typeByObj[t[2]], t[0])
	}
}

func (e *engine) run(ctx context.Context) error {
	defer e.flushMetrics()
	done := ctx.Done()
	for n := 0; len(e.queue) > 0; n++ {
		if done != nil && n&0x3ff == 0 {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		e.process(e.pop())
	}
	return nil
}

// flushMetrics publishes the tallies accumulated since the previous
// flush and zeroes them; a Maintainer-held engine runs many times, so
// each run contributes exactly its own delta.
func (e *engine) flushMetrics() {
	ruleFirings.Add(e.fired)
	triplesDerived.Add(e.derived)
	e.fired, e.derived = 0, 0
}

// pop removes and returns the next queued triple according to the
// engine's queue order (LIFO unless a test selected another order).
func (e *engine) pop() dict.Triple3 {
	switch e.order {
	case fifoOrder:
		t := e.queue[0]
		e.queue = e.queue[1:]
		return t
	case shuffledOrder:
		i := e.shuffleRng.Intn(len(e.queue))
		last := len(e.queue) - 1
		e.queue[i], e.queue[last] = e.queue[last], e.queue[i]
		t := e.queue[last]
		e.queue = e.queue[:last]
		return t
	default:
		t := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		return t
	}
}

// process fires every rule that has t as one of its antecedents, joining
// against the current indexes. Because indexes are updated at add time,
// each antecedent pair/triple is joined when its last member is
// processed, which covers all instantiations exactly once.
func (e *engine) process(t dict.Triple3) {
	s, p, o := t[0], t[1], t[2]
	// Rules that see t as a generic triple (X, A, Y).
	// Rule (8): (X,A,Y) ⊢ (A,sp,A).
	e.addLoop(e.spOut, e.sp, p)
	for b := range e.spOut[p] {
		// Rule (3): (A,sp,B), (X,A,Y) ⊢ (X,B,Y), for the new (X,A,Y) = t.
		if e.canPredicate(b) {
			e.add(dict.Triple3{s, b, o})
		}
		// Rules (6)/(7) with t as the body triple (X,C,Y): C sp A (or
		// C = A, whose reflexive sp loop is handled when (C,sp,C) is
		// processed).
		for _, c := range e.domOf[b] {
			e.add(dict.Triple3{s, e.typ, c})
		}
		for _, c := range e.rangeOf[b] {
			e.add(dict.Triple3{o, e.typ, c})
		}
	}

	switch p {
	case e.sp:
		a, b := s, o
		// Rule (2): transitivity, joining on both sides.
		for c := range e.spOut[b] {
			e.add(dict.Triple3{a, e.sp, c})
		}
		for z := range e.spIn[a] {
			e.add(dict.Triple3{z, e.sp, b})
		}
		// Rule (11): reflexivity of both endpoints.
		e.addLoop(e.spOut, e.sp, a)
		e.addLoop(e.spOut, e.sp, b)
		// Rule (3) with t as the (A,sp,B) antecedent.
		if e.canPredicate(b) {
			for _, body := range e.byPred[a] {
				e.add(dict.Triple3{body[0], b, body[2]})
			}
		}
		// Rules (6)/(7) with t as the (C,sp,A) antecedent: C = a, A = b.
		for _, cls := range e.domOf[b] {
			for _, body := range e.byPred[a] {
				e.add(dict.Triple3{body[0], e.typ, cls})
			}
		}
		for _, cls := range e.rangeOf[b] {
			for _, body := range e.byPred[a] {
				e.add(dict.Triple3{body[2], e.typ, cls})
			}
		}
	case e.sc:
		a, b := s, o
		// Rule (4): transitivity.
		for c := range e.scOut[b] {
			e.add(dict.Triple3{a, e.sc, c})
		}
		for z := range e.scIn[a] {
			e.add(dict.Triple3{z, e.sc, b})
		}
		// Rule (13): reflexivity of both endpoints.
		e.addLoop(e.scOut, e.sc, a)
		e.addLoop(e.scOut, e.sc, b)
		// Rule (5) with t as the (A,sc,B) antecedent.
		for _, x := range e.typeByObj[a] {
			e.add(dict.Triple3{x, e.typ, b})
		}
	case e.dom:
		// Rule (10) and rule (12).
		e.addLoop(e.spOut, e.sp, s)
		e.addLoop(e.scOut, e.sc, o)
		// Rule (6) with t as the (A,dom,B) antecedent: join (C,sp,A) and
		// bodies (X,C,Y).
		e.fireDomRange(s, o, true)
	case e.rng:
		e.addLoop(e.spOut, e.sp, s)
		e.addLoop(e.scOut, e.sc, o)
		e.fireDomRange(s, o, false)
	case e.typ:
		x, a := s, o
		// Rule (5) with t as the (X,type,A) antecedent.
		for b := range e.scOut[a] {
			e.add(dict.Triple3{x, e.typ, b})
		}
		// Rule (12).
		e.addLoop(e.scOut, e.sc, a)
	}
}

// fireDomRange fires rule (6) (dom) or (7) (range) for a newly added
// (A, dom/range, B) triple: for every C with (C,sp,A) already present and
// every body (X,C,Y), emit the typing conclusion. The reflexive C = A
// case is carried by the (A,sp,A) loop added by rule (10), which joins
// back through the sp branch of process.
func (e *engine) fireDomRange(a, b dict.ID, isDom bool) {
	for c := range e.spIn[a] {
		for _, body := range e.byPred[c] {
			if isDom {
				e.add(dict.Triple3{body[0], e.typ, b})
			} else {
				e.add(dict.Triple3{body[2], e.typ, b})
			}
		}
	}
}
