package closure

import (
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// Membership answers "t ∈ cl(G)?" queries. For graphs in which no
// reserved vocabulary occurs in subject or object position — the
// well-behaved class also used by Theorem 3.16 — the answer is computed
// by reachability over the sp/sc digraphs without materializing the
// closure, mirroring the O(|G| log |G|) procedure behind Theorem 3.6(4).
// For graphs outside that class (reserved words as data, e.g.
// (q, sp, dom)), it transparently falls back to the materialized closure.
type Membership struct {
	g    *graph.Graph
	fast bool

	// fast-path state
	spOut map[term.Term][]term.Term // base sp edges
	scOut map[term.Term][]term.Term // base sc edges

	preds            map[term.Term]struct{} // predicates of base triples
	spEndpoints      map[term.Term]struct{} // endpoints of base sp triples
	scEndpoints      map[term.Term]struct{} // endpoints of base sc triples
	domRangeSubjects map[term.Term]struct{}
	domRangeObjects  map[term.Term]struct{}
	doms             []graph.Triple // (A,dom,B) triples
	ranges           []graph.Triple // (A,range,B) triples

	bySubject map[term.Term][]graph.Triple
	byObject  map[term.Term][]graph.Triple
	byPred    map[term.Term][]graph.Triple

	// fallback state
	materialized *graph.Graph
}

// NewMembership preprocesses g for repeated membership queries.
func NewMembership(g *graph.Graph) *Membership {
	m := &Membership{g: g}
	if rdfs.MentionsVocabularyOutsidePredicate(g) {
		m.fast = false
		m.materialized = RDFSCl(g)
		return m
	}
	m.fast = true
	m.spOut = make(map[term.Term][]term.Term)
	m.scOut = make(map[term.Term][]term.Term)
	m.preds = make(map[term.Term]struct{})
	m.spEndpoints = make(map[term.Term]struct{})
	m.scEndpoints = make(map[term.Term]struct{})
	m.domRangeSubjects = make(map[term.Term]struct{})
	m.domRangeObjects = make(map[term.Term]struct{})
	m.bySubject = make(map[term.Term][]graph.Triple)
	m.byObject = make(map[term.Term][]graph.Triple)
	m.byPred = make(map[term.Term][]graph.Triple)
	g.Each(func(t graph.Triple) bool {
		m.preds[t.P] = struct{}{}
		m.bySubject[t.S] = append(m.bySubject[t.S], t)
		m.byObject[t.O] = append(m.byObject[t.O], t)
		m.byPred[t.P] = append(m.byPred[t.P], t)
		switch t.P {
		case rdfs.SubPropertyOf:
			m.spOut[t.S] = append(m.spOut[t.S], t.O)
			m.spEndpoints[t.S] = struct{}{}
			m.spEndpoints[t.O] = struct{}{}
		case rdfs.SubClassOf:
			m.scOut[t.S] = append(m.scOut[t.S], t.O)
			m.scEndpoints[t.S] = struct{}{}
			m.scEndpoints[t.O] = struct{}{}
		case rdfs.Domain:
			m.domRangeSubjects[t.S] = struct{}{}
			m.domRangeObjects[t.O] = struct{}{}
			m.doms = append(m.doms, t)
		case rdfs.Range:
			m.domRangeSubjects[t.S] = struct{}{}
			m.domRangeObjects[t.O] = struct{}{}
			m.ranges = append(m.ranges, t)
		}
		return true
	})
	return m
}

// Fast reports whether the reachability-based path is in use.
func (m *Membership) Fast() bool { return m.fast }

// Contains reports whether t ∈ cl(G) = RDFS-cl(G).
func (m *Membership) Contains(t graph.Triple) bool {
	if !t.WellFormed() {
		return false
	}
	if m.g.Has(t) {
		return true
	}
	if !m.fast {
		return m.materialized.Has(t)
	}
	switch t.P {
	case rdfs.SubPropertyOf:
		if t.S == t.O {
			return m.spReflexive(t.S)
		}
		return reach(m.spOut, t.S, t.O)
	case rdfs.SubClassOf:
		if t.S == t.O {
			return m.scReflexive(t.S)
		}
		return reach(m.scOut, t.S, t.O)
	case rdfs.Type:
		return m.hasType(t.S, t.O)
	case rdfs.Domain, rdfs.Range:
		// In the restricted class, dom/range triples are never derived
		// (rule (3) would need the reserved word in object position).
		return false
	default:
		// Plain triple (x,p,y): derivable exactly via rule (3) from some
		// base triple (x,c,y) with c sp-reaching p.
		for _, base := range m.bySubject[t.S] {
			if base.O != t.O {
				continue
			}
			if base.P == t.P || reach(m.spOut, base.P, t.P) {
				return true
			}
		}
		return false
	}
}

// spReflexive decides (a, sp, a) ∈ cl(G) via rules (8)–(11): a is a
// reserved word, a predicate of some triple of the closure (i.e. an
// sp-ancestor-closed predicate of the base), an endpoint of an sp edge,
// or the subject of a dom/range triple.
func (m *Membership) spReflexive(a term.Term) bool {
	if rdfs.IsVocabulary(a) {
		return true
	}
	if _, ok := m.spEndpoints[a]; ok {
		return true
	}
	if _, ok := m.domRangeSubjects[a]; ok {
		return true
	}
	// Rule (8) over the closure: a is a predicate of a derived triple iff
	// some base predicate sp-reaches a (rule (3)), or a is itself used.
	if _, ok := m.preds[a]; ok {
		return true
	}
	if !a.CanPredicate() {
		return false
	}
	for c := range m.preds {
		if reach(m.spOut, c, a) {
			return true
		}
	}
	return false
}

// scReflexive decides (a, sc, a) ∈ cl(G) via rules (12)–(13): a is an
// endpoint of an sc edge, an object of a dom/range triple, or the object
// of some type triple of the closure.
func (m *Membership) scReflexive(a term.Term) bool {
	if _, ok := m.scEndpoints[a]; ok {
		return true
	}
	if _, ok := m.domRangeObjects[a]; ok {
		return true
	}
	// (x, type, a) ∈ cl(G) for some x?
	// Sources of type objects: base type triples, dom/range conclusions;
	// all then lifted along sc (rule (5)). a is such an object iff some
	// source class sc-reaches a (or equals a).
	for _, src := range m.typeObjectSources() {
		if src == a || reach(m.scOut, src, a) {
			return true
		}
	}
	return false
}

// typeObjectSources returns the classes that appear as objects of type
// triples before sc-lifting: objects of base type triples, plus B for
// every applicable (A,dom,B) / (A,range,B).
func (m *Membership) typeObjectSources() []term.Term {
	var out []term.Term
	for _, t := range m.byPred[rdfs.Type] {
		out = append(out, t.O)
	}
	for _, dm := range m.doms {
		if m.propertyApplicable(dm.S) {
			out = append(out, dm.O)
		}
	}
	for _, rg := range m.ranges {
		if m.propertyApplicable(rg.S) {
			out = append(out, rg.O)
		}
	}
	return out
}

// propertyApplicable reports whether some base triple's predicate c
// sp-reaches A (including c = A): the (C,sp,A),(X,C,Y) part of rules
// (6)/(7).
func (m *Membership) propertyApplicable(a term.Term) bool {
	if _, ok := m.preds[a]; ok {
		return true
	}
	for c := range m.preds {
		if reach(m.spOut, c, a) {
			return true
		}
	}
	return false
}

// hasType decides (x, type, b) ∈ cl(G): some class B with B sc-reaching b
// (or B = b) is directly asserted for x, or follows from rule (6)/(7)
// applied to a triple with subject/object x.
func (m *Membership) hasType(x, b term.Term) bool {
	hits := func(B term.Term) bool {
		return B == b || reach(m.scOut, B, b)
	}
	for _, t := range m.bySubject[x] {
		if t.P == rdfs.Type && hits(t.O) {
			return true
		}
		// Rule (6): t = (x, c, y), c sp* A, (A, dom, B).
		for _, dm := range m.doms {
			if hits(dm.O) && (t.P == dm.S || reach(m.spOut, t.P, dm.S)) {
				return true
			}
		}
	}
	for _, t := range m.byObject[x] {
		// Rule (7): t = (y, c, x), c sp* A, (A, range, B).
		for _, rg := range m.ranges {
			if hits(rg.O) && (t.P == rg.S || reach(m.spOut, t.P, rg.S)) {
				return true
			}
		}
	}
	return false
}

// reach reports a path of length ≥ 1 from src to dst in the digraph adj.
func reach(adj map[term.Term][]term.Term, src, dst term.Term) bool {
	seen := map[term.Term]struct{}{}
	stack := append([]term.Term(nil), adj[src]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == dst {
			return true
		}
		if _, ok := seen[n]; ok {
			continue
		}
		seen[n] = struct{}{}
		stack = append(stack, adj[n]...)
	}
	return false
}
