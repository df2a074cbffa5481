// This file implements schema-first full saturation, the path RDFSCl
// takes when no rdfsV term occurs in a subject or object position of G.
//
// In that class an instance triple — one whose predicate is not sp, sc,
// dom or range — derives no non-reflexive schema triple: rule (3) only
// lifts it to a superproperty q, and q ∉ rdfsV because q is the object
// of an sp triple; every other rule it feeds concludes a typing or a
// reflexive loop. So the schema closes on its own (phase 1, the
// semi-naive engine over the schema triples and rule (9)'s loops), and
// what an instance triple (x,p,y) adds is read off the closed schema
// (Theorem 3.6): (x,q,y) for the IRIs q ∈ sp*(p), (x,type,c) for the
// classes c ∈ sc*(dom(q)) and (y,type,c) for c ∈ sc*(range(q)) over all
// q ∈ sp*(p), blank superproperties included, (x,type,c′) for
// c′ ∈ sc*(c) when p is type, and the loops of rules (8) and (12).
// Phase 2 compiles those sets once per predicate and object class and
// makes one pass over the instance triples. A derived instance triple is
// never processed again: its consequences are a subset of its source's,
// because sp*(q) ⊆ sp*(p) and sc*(c′) ⊆ sc*(c).
//
// The loops phase 2 derives go through the engine (add, then a final
// run) so the schema indexes stay exact. The instance triples are never
// indexed, and the closed schema already holds everything a loop joins
// with, so that run derives nothing but the loops themselves.

package closure

import (
	"context"
	"slices"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
)

// schemaTriples returns the sp/sc/dom/range triples of g, or false when
// some rdfsV term occurs in a subject or object position of g
// (rdfs.MentionsVocabularyOutsidePredicate, decided on IDs), where the
// schema-first argument does not hold.
func (e *engine) schemaTriples(g *graph.Graph) ([]dict.Triple3, bool) {
	var schema []dict.Triple3
	ok := true
	g.EachID(func(t dict.Triple3) bool {
		if e.isVocabulary(t[0]) || e.isVocabulary(t[2]) {
			ok = false
			return false
		}
		if e.isSchemaPredicate(t[1]) {
			schema = append(schema, t)
		}
		return true
	})
	return schema, ok
}

func (e *engine) isVocabulary(id dict.ID) bool {
	return id == e.typ || e.isSchemaPredicate(id)
}

func (e *engine) isSchemaPredicate(p dict.ID) bool {
	return p == e.sp || p == e.sc || p == e.dom || p == e.rng
}

// predicatePlan is what every instance triple with one predicate p
// adds, compiled from the closed schema.
type predicatePlan struct {
	supers     []dict.ID // IRI q ≠ p with (p,sp,q): rule (3)
	subj, objs []dict.ID // sc* of the dom/range classes of sp*(p): rules (6), (7), (5)
}

// schemaFirst saturates g given its schema triples (see the file
// comment): phase 1 closes the schema, phase 2 is one compiled pass
// over the instance triples.
func (e *engine) schemaFirst(ctx context.Context, g *graph.Graph, schema []dict.Triple3) error {
	for _, t := range schema {
		e.add(t)
	}
	e.addVocabularyLoops()
	if err := e.run(ctx); err != nil {
		return err
	}

	plans := make(map[dict.ID]*predicatePlan)
	up := make(map[dict.ID][]dict.ID) // c -> {c} ∪ sc*(c)
	done := ctx.Done()
	var err error
	n := 0
	g.EachID(func(t dict.Triple3) bool {
		s, p, o := t[0], t[1], t[2]
		if e.isSchemaPredicate(p) {
			return true
		}
		if n++; done != nil && n&0x3ff == 0 {
			select {
			case <-done:
				err = ctx.Err()
				return false
			default:
			}
		}
		e.emit(t)
		if p == e.typ {
			// Rules (5) and (12); type has no superproperty, domain or
			// range in this class.
			e.typeAll(s, e.classesUp(up, o))
			return true
		}
		pl := plans[p]
		if pl == nil {
			pl = e.compile(p, up)
			plans[p] = pl
		}
		for _, q := range pl.supers {
			e.emit(dict.Triple3{s, q, o})
		}
		e.typeAll(s, pl.subj)
		e.typeAll(o, pl.objs) // ill-formed, so not admitted, if o is a literal
		return true
	})
	if err != nil {
		e.flushMetrics()
		return err
	}
	return e.run(ctx)
}

// compile builds p's plan from the closed schema and fires rule (8)'s
// (p,sp,p), after which spOut[p] is sp*(p).
func (e *engine) compile(p dict.ID, up map[dict.ID][]dict.ID) *predicatePlan {
	e.addLoop(e.spOut, e.sp, p)
	pl := &predicatePlan{}
	var subj, objs []dict.ID
	for q := range e.spOut[p] {
		if q != p && e.canPredicate(q) {
			pl.supers = append(pl.supers, q)
		}
		for _, c := range e.domOf[q] {
			subj = append(subj, e.classesUp(up, c)...)
		}
		for _, c := range e.rangeOf[q] {
			objs = append(objs, e.classesUp(up, c)...)
		}
	}
	slices.Sort(subj)
	slices.Sort(objs)
	pl.subj, pl.objs = slices.Compact(subj), slices.Compact(objs)
	return pl
}

// classesUp returns {c} ∪ sc*(c), compiled once per class. Compiling it
// fires rule (12)'s (c,sc,c), which is due: c is the object of an
// admitted typing — the subject of a type triple of G is never a
// literal — or of a dom/range triple. That covers every typing phase 2
// derives, since the classes above c have their loops by rule (13).
func (e *engine) classesUp(up map[dict.ID][]dict.ID, c dict.ID) []dict.ID {
	cs, ok := up[c]
	if !ok {
		e.addLoop(e.scOut, e.sc, c)
		cs = []dict.ID{c}
		for a := range e.scOut[c] {
			if a != c {
				cs = append(cs, a)
			}
		}
		up[c] = cs
	}
	return cs
}

// typeAll emits (x,type,c) for every c in classes.
func (e *engine) typeAll(x dict.ID, classes []dict.ID) {
	for _, c := range classes {
		e.emit(dict.Triple3{x, e.typ, c})
	}
}

// emit admits an instance-level conclusion into the closure without
// indexing or queueing it: its consequences are already in the plan
// that produced it.
func (e *engine) emit(t dict.Triple3) {
	e.fired++
	if e.out.AddID(t) {
		e.derived++
	}
}
