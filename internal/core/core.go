// Package core implements the minimal representations of Section 3.2 and
// the normal forms of Section 3.3 of the paper: leanness (Definition
// 3.7), the core of an RDF graph (Theorem 3.10), the normal form
// nf(G) = core(cl(G)) (Definition 3.18), and the unique minimal
// representation for the restricted graph class of Theorem 3.16.
//
// Maps fix IRIs, so leanness, cores and normal forms run on one search
// per blank component (graph.BlankComponents). Lemma: G is non-lean iff,
// for some blank b in some component C, there is a map C → G under which
// no blank is sent to b. Forward: if μ(G) ⊊ G, some power ν of μ is
// idempotent and ν(G) ⊊ G; ν fixes every blank of ν(G), so some blank b
// of G does not occur in ν(G); restrict ν to b's component. Converse:
// extend the map by the identity; its image misses every triple with b.
package core

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"semwebdb/internal/canon"
	"semwebdb/internal/closure"
	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/reduction"
	"semwebdb/internal/term"
)

// IsLean reports whether G is lean (Definition 3.7): no map μ sends G to
// a proper subgraph of itself. By the package lemma it searches, for
// each blank b of each blank component C, a map C → G that sends no
// blank to b. The problem is coNP-complete (Theorem 3.12), and the
// hardness lives inside a single component.
func IsLean(g *graph.Graph) bool {
	lean, _ := IsLeanCtx(context.Background(), g)
	return lean
}

// IsLeanCtx is IsLean under a context: the underlying map searches poll
// ctx and abort with its error when it is cancelled.
func IsLeanCtx(ctx context.Context, g *graph.Graph) (bool, error) {
	r := newRetraction(ctx, match.NewIndex(g))
	for _, comp := range g.BlankComponents() {
		if ok, err := r.proper(comp); ok || err != nil {
			return false, err
		}
	}
	return true, nil
}

// Gone returns the blanks core(G) drops, for G the graph of ix. By the
// package lemma core(G) is G without the triples that mention one, so
// ix.Hiding(Gone(ix)) matches exactly against core(G). The searches run
// on ix itself and poll ctx; nothing is copied.
func Gone(ctx context.Context, ix *match.Index) (map[dict.ID]bool, error) {
	r := newRetraction(ctx, ix)
	_, err := r.run(ix.Graph().BlankComponents())
	return r.gone, err
}

// retraction runs the package lemma's map searches with one solver over
// H, the index's graph without the triples of the gone blanks: the
// patterns are a component's own encoded triples and its blanks the
// unknowns, so nothing is decoded or interned.
type retraction struct {
	gone    map[dict.ID]bool // blanks retracted so far
	h       *match.Index     // the index hiding gone
	s       *match.Solver    // searches over h
	unknown map[dict.ID]bool // the blanks of the component searched
	blanks  []dict.ID        // the same, sorted
	avoid   dict.ID          // the value no blank may take; Wildcard for none
	mu      match.Binding    // the last map found
}

func newRetraction(ctx context.Context, ix *match.Index) *retraction {
	r := &retraction{gone: make(map[dict.ID]bool), unknown: make(map[dict.ID]bool), mu: make(match.Binding)}
	r.h = ix.Hiding(r.gone)
	r.s = match.NewSolver(r.h, match.Options{Ctx: ctx, Admissible: func(_, v dict.ID) bool { return v != r.avoid }})
	return r
}

// setUnknown makes the blanks of comp the unknowns of the next searches.
func (r *retraction) setUnknown(comp []dict.Triple3) {
	clear(r.unknown)
	for _, t := range comp {
		for _, x := range [2]dict.ID{t[0], t[2]} {
			if r.h.Dict().KindOf(x) == term.KindBlank {
				r.unknown[x] = true
			}
		}
	}
}

// find searches a map μ : comp → H that sends no blank to avoid and
// keeps it in r.mu. The caller has set comp's blanks as the unknowns.
func (r *retraction) find(comp []dict.Triple3, avoid dict.ID) (bool, error) {
	r.avoid = avoid
	clear(r.mu)
	r.s.SolveIDs(comp, r.unknown, func(b match.Binding) bool {
		maps.Copy(r.mu, b)
		return false
	})
	return len(r.mu) > 0, r.s.Err()
}

// proper reports whether some map cur → H misses a blank of the
// component triples cur, leaving it in r.mu. The blanks are tried in ID
// order, so the retract found is deterministic.
func (r *retraction) proper(cur []dict.Triple3) (bool, error) {
	r.setUnknown(cur)
	r.blanks = slices.AppendSeq(r.blanks[:0], maps.Keys(r.unknown))
	slices.Sort(r.blanks)
	for _, b := range r.blanks {
		if ok, err := r.find(cur, b); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// run retracts one blank component at a time: while proper finds a map
// C → H missing a blank of C, the blanks of C outside its image go and
// C shrinks to the image. It returns the components that lost a blank.
func (r *retraction) run(comps [][]dict.Triple3) ([][]dict.Triple3, error) {
	goneIn := func(t dict.Triple3) bool { return r.gone[t[0]] || r.gone[t[2]] }
	var retracted [][]dict.Triple3
	for _, comp := range comps {
		cur := comp
		ok, err := r.proper(cur)
		for ; ok; ok, err = r.proper(cur) {
			// The blanks of C outside the image go, with their triples.
			for x := range r.mu {
				r.gone[x] = true
			}
			for _, v := range r.mu {
				delete(r.gone, v)
			}
			cur = slices.DeleteFunc(slices.Clone(cur), goneIn)
		}
		if err != nil {
			return nil, err
		}
		if len(cur) < len(comp) {
			retracted = append(retracted, comp)
		}
	}
	return retracted, nil
}

// Core returns core(G): the unique (up to isomorphism) lean subgraph of G
// that is an instance of G (Theorem 3.10), and a map μ with μ(G) = core(G).
//
// It retracts one blank component C at a time: while the package lemma
// finds a map C → H missing a blank of C, C is replaced by its image,
// where H, the current retract, is G without the triples of the blanks
// gone so far. Each retraction removes a blank, so a component of k
// blanks costs at most k retractions of at most k map searches each,
// and each search is NP-complete in general (Theorem 3.12).
func Core(g *graph.Graph) (*graph.Graph, graph.Map) {
	c, mu, _ := CoreCtx(context.Background(), g)
	return c, mu
}

// CoreCtx is Core under a context: each map search polls ctx and the
// computation aborts with its error when it is cancelled. The searches
// run on G's own index and avoid the gone blanks (Gone), so only the
// returned graph is a copy. μ is one map per retracted component into
// the final H; together they send G onto H, which is lean (composing the
// retractions instead would cost O(|moved blanks|) per retraction).
func CoreCtx(ctx context.Context, g *graph.Graph) (*graph.Graph, graph.Map, error) {
	r := newRetraction(ctx, match.NewIndex(g))
	retracted, err := r.run(g.BlankComponents())
	if err != nil {
		return nil, nil, err
	}
	d, total := g.Dict(), make(graph.Map)
	for _, comp := range retracted {
		r.setUnknown(comp)
		if _, err := r.find(comp, dict.Wildcard); err != nil {
			return nil, nil, err
		}
		for x, v := range r.mu {
			total[d.TermOf(x)] = d.TermOf(v)
		}
	}
	return r.h.Clone(d), total, nil
}

// CoreGraph is Core without the witness map.
func CoreGraph(g *graph.Graph) *graph.Graph {
	c, _ := Core(g)
	return c
}

// IsCoreOf reports whether h ≅ core(g). Deciding this is DP-complete
// (Theorem 3.12(2)).
func IsCoreOf(h, g *graph.Graph) bool {
	return hom.Isomorphic(h, CoreGraph(g))
}

// NormalForm returns nf(G) = core(cl(G)) (Definition 3.18). By Theorem
// 3.19 it is unique up to isomorphism and syntax independent:
// G ≡ H iff nf(G) ≅ nf(H).
func NormalForm(g *graph.Graph) *graph.Graph {
	nf, _ := NormalFormCtx(context.Background(), g)
	return nf
}

// NormalFormCtx is NormalForm under a context: both the closure
// saturation and the core retraction searches poll ctx and abort with
// its error when it is cancelled.
func NormalFormCtx(ctx context.Context, g *graph.Graph) (*graph.Graph, error) {
	cl, err := closure.RDFSClCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	nf, _, err := CoreCtx(ctx, cl)
	return nf, err
}

// SameNormalForm reports nf(G) ≅ nf(H), which by Theorem 3.19 decides
// G ≡ H. (Deciding whether a given graph is the normal form of another is
// DP-complete, Theorem 3.20.)
func SameNormalForm(g, h *graph.Graph) bool {
	return hom.Isomorphic(NormalForm(g), NormalForm(h))
}

// Fingerprint returns a total equivalence certificate for G: the
// canonical serialization of nf(G). By Theorem 3.19 and the correctness
// of canonical labeling, G ≡ H iff Fingerprint(G) == Fingerprint(H), so
// semantic equivalence of RDF databases reduces to string comparison.
func Fingerprint(g *graph.Graph) string {
	fp, _ := FingerprintCtx(context.Background(), g)
	return fp
}

// FingerprintCtx is Fingerprint under a context (see NormalFormCtx).
func FingerprintCtx(ctx context.Context, g *graph.Graph) (string, error) {
	nf, err := NormalFormCtx(ctx, g)
	if err != nil {
		return "", err
	}
	return canon.String(nf), nil
}

// ErrNotInRestrictedClass is returned by MinimalRepresentation when the
// graph falls outside the class of Theorem 3.16.
type ErrNotInRestrictedClass struct{ Reason string }

func (e *ErrNotInRestrictedClass) Error() string {
	return fmt.Sprintf("core: graph outside the Theorem 3.16 class: %s", e.Reason)
}

// CheckRestrictedClass verifies the preconditions of Theorem 3.16: no
// reserved vocabulary in subject or object position, and acyclicity of
// the sp and sc subgraphs (ignoring reflexive loops, which the theorem's
// proof treats separately).
func CheckRestrictedClass(g *graph.Graph) error {
	if rdfs.MentionsVocabularyOutsidePredicate(g) {
		return &ErrNotInRestrictedClass{Reason: "reserved vocabulary occurs in subject or object position"}
	}
	sc := subgraphDigraph(g, rdfs.SubClassOf).WithoutSelfLoops()
	if !sc.IsAcyclic() {
		return &ErrNotInRestrictedClass{Reason: "subclass subgraph has a cycle"}
	}
	sp := subgraphDigraph(g, rdfs.SubPropertyOf).WithoutSelfLoops()
	if !sp.IsAcyclic() {
		return &ErrNotInRestrictedClass{Reason: "subproperty subgraph has a cycle"}
	}
	return nil
}

// subgraphDigraph extracts the digraph of p-labelled triples of g.
func subgraphDigraph(g *graph.Graph, p term.Term) *reduction.Digraph {
	d := reduction.NewDigraph()
	for _, t := range g.WithPredicate(p) {
		d.AddEdge(t.S, t.O)
	}
	return d
}

// MinimalRepresentation computes the unique minimal representation of G
// (Definition 3.13, Theorem 3.16): the minimal (w.r.t. number of triples)
// graph equivalent to G and contained in G. The graph must belong to the
// restricted class; otherwise an error is returned (Examples 3.14 and
// 3.15 show uniqueness fails outside it).
//
// The construction follows the five-case analysis of the theorem's proof:
//
//  1. sc triples: keep exactly the transitive reduction of the sc DAG;
//  2. sp triples: likewise;
//  3. dom/range triples: always kept (nothing derives them here);
//  4. plain triples (a,b,c): dropped iff G holds a witness (a,d,c) with
//     d a strict sp-descendant of b (rule (3) re-derives the triple);
//  5. type triples (x,type,c): dropped iff re-derivable by rule (5) from
//     a retained lower type assertion or by rules (6)/(7) from dom/range;
//     reflexive (a,sc,a)/(a,sp,a) loops are dropped iff rules (8)–(13)
//     re-derive them.
func MinimalRepresentation(g *graph.Graph) (*graph.Graph, error) {
	if err := CheckRestrictedClass(g); err != nil {
		return nil, err
	}

	spDag := subgraphDigraph(g, rdfs.SubPropertyOf).WithoutSelfLoops()
	scDag := subgraphDigraph(g, rdfs.SubClassOf).WithoutSelfLoops()
	spRed := spDag.TransitiveReduction()
	scRed := scDag.TransitiveReduction()

	out := graph.New()
	m := &minimizer{g: g, spDag: spDag, scDag: scDag}

	// spReach reports d sp-reaches b through a path of length ≥ 1.
	spReach := func(d, b term.Term) bool { return spDag.Reaches(d, b) }
	scReach := func(d, b term.Term) bool { return scDag.Reaches(d, b) }

	// typeDerivableFromDomRange reports whether (x, type, c) follows from
	// rules (6)/(7) together with sc-lifting (rule (5)) from the dom and
	// range triples of G (which are all retained) and the plain triples
	// (whose sp-minimal witnesses are all retained).
	doms := g.WithPredicate(rdfs.Domain)
	ranges := g.WithPredicate(rdfs.Range)
	typeDerivableFromDomRange := func(x, c term.Term) bool {
		ok := false
		g.Each(func(t graph.Triple) bool {
			if rdfs.IsVocabulary(t.P) {
				return true
			}
			if t.S == x {
				for _, dm := range doms {
					if (t.P == dm.S || spReach(t.P, dm.S)) &&
						(dm.O == c || scReach(dm.O, c)) {
						ok = true
						return false
					}
				}
			}
			if t.O == x {
				for _, rg := range ranges {
					if (t.P == rg.S || spReach(t.P, rg.S)) &&
						(rg.O == c || scReach(rg.O, c)) {
						ok = true
						return false
					}
				}
			}
			return true
		})
		return ok
	}

	for _, t := range g.Triples() {
		switch t.P {
		case rdfs.SubClassOf:
			if t.S == t.O {
				// Reflexive loop: drop iff rules (12)/(13) re-derive it
				// from the rest of G.
				if !m.reflexiveScDerivable(t.S) {
					out.MustAdd(t)
				}
				continue
			}
			if scRed.HasEdge(t.S, t.O) {
				out.MustAdd(t)
			}
		case rdfs.SubPropertyOf:
			if t.S == t.O {
				if !m.reflexiveSpDerivable(t.S) {
					out.MustAdd(t)
				}
				continue
			}
			if spRed.HasEdge(t.S, t.O) {
				out.MustAdd(t)
			}
		case rdfs.Domain, rdfs.Range:
			out.MustAdd(t)
		case rdfs.Type:
			x, c := t.S, t.O
			// Derivable by rule (5) from a strictly lower asserted type?
			lower := false
			for _, u := range g.WithPredicate(rdfs.Type) {
				if u.S == x && u.O != c && scReach(u.O, c) {
					lower = true
					break
				}
			}
			if lower || typeDerivableFromDomRange(x, c) {
				continue
			}
			out.MustAdd(t)
		default:
			// Plain triple: redundant iff a strict sp-descendant witness
			// exists (rule (3)).
			redundant := false
			for _, u := range g.Triples() {
				if u.S == t.S && u.O == t.O && u.P != t.P &&
					!rdfs.IsVocabulary(u.P) && spReach(u.P, t.P) {
					redundant = true
					break
				}
			}
			if !redundant {
				out.MustAdd(t)
			}
		}
	}
	return out, nil
}

// minimizer holds the shared reachability state for the reflexive-loop
// case analysis of Theorem 3.16's proof.
type minimizer struct {
	g     *graph.Graph
	spDag *reduction.Digraph
	scDag *reduction.Digraph
}

// reflexiveSpDerivable reports whether (a, sp, a) follows by rules
// (8)–(11) from the triples of g other than the loop itself. Rule (8)
// applies to derived triples as well, so a is also "used as a predicate"
// when some base predicate sp-reaches a (rule (3) lifts the base triple
// to predicate a first).
func (m *minimizer) reflexiveSpDerivable(a term.Term) bool {
	if rdfs.IsVocabulary(a) { // rule (9)
		return true
	}
	found := false
	loop := graph.T(a, rdfs.SubPropertyOf, a)
	m.g.Each(func(t graph.Triple) bool {
		if t == loop {
			return true
		}
		if t.P == a { // rule (8)
			found = true
			return false
		}
		if !rdfs.IsVocabulary(t.P) && a.CanPredicate() && m.spDag.Reaches(t.P, a) {
			// rule (3) then rule (8) on the derived triple
			found = true
			return false
		}
		if (t.P == rdfs.Domain || t.P == rdfs.Range) && t.S == a { // rule (10)
			found = true
			return false
		}
		if t.P == rdfs.SubPropertyOf && t.S != t.O && (t.S == a || t.O == a) { // rule (11)
			found = true
			return false
		}
		return true
	})
	return found
}

// reflexiveScDerivable reports whether (a, sc, a) follows by rules
// (12)/(13) from g without the loop itself. Rule (12) also applies to
// *derived* type triples (rules (5)/(6)/(7)), none of which depend on the
// loop being removed, so derived type objects are checked too.
func (m *minimizer) reflexiveScDerivable(a term.Term) bool {
	found := false
	loop := graph.T(a, rdfs.SubClassOf, a)
	doms := m.g.WithPredicate(rdfs.Domain)
	ranges := m.g.WithPredicate(rdfs.Range)
	m.g.Each(func(t graph.Triple) bool {
		if t == loop {
			return true
		}
		if (t.P == rdfs.Domain || t.P == rdfs.Range || t.P == rdfs.Type) && t.O == a { // rule (12)
			found = true
			return false
		}
		if t.P == rdfs.SubClassOf && t.S != t.O && (t.S == a || t.O == a) { // rule (13)
			found = true
			return false
		}
		// Derived (x, type, a) via rule (5): an asserted type object
		// sc-reaching a.
		if t.P == rdfs.Type && m.scDag.Reaches(t.O, a) {
			found = true
			return false
		}
		// Derived (x, type, a) via rules (6)/(7): a dom/range triple
		// whose class sc-reaches a (or is a), applied to the plain
		// triple t.
		if !rdfs.IsVocabulary(t.P) {
			for _, dm := range doms {
				if (dm.O == a || m.scDag.Reaches(dm.O, a)) &&
					(t.P == dm.S || m.spDag.Reaches(t.P, dm.S)) {
					found = true
					return false
				}
			}
			for _, rg := range ranges {
				if (rg.O == a || m.scDag.Reaches(rg.O, a)) &&
					(t.P == rg.S || m.spDag.Reaches(t.P, rg.S)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
