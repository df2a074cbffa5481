// Package core implements the minimal representations of Section 3.2 and
// the normal forms of Section 3.3 of the paper: leanness (Definition
// 3.7), the core of an RDF graph (Theorem 3.10), the normal form
// nf(G) = core(cl(G)) (Definition 3.18), and the unique minimal
// representation for the restricted graph class of Theorem 3.16.
package core

import (
	"context"
	"fmt"

	"semwebdb/internal/canon"
	"semwebdb/internal/closure"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/reduction"
	"semwebdb/internal/term"
)

// IsLean reports whether G is lean (Definition 3.7): no map μ sends G to
// a proper subgraph of itself.
//
// The implementation uses the single-triple-deletion characterization:
// G is non-lean iff for some non-ground triple t ∈ G there is a map
// G → G∖{t}. (If μ(G) ⊊ G then some t ∈ G∖μ(G), and μ is a map into
// G∖{t}; conversely any such map has a proper image. Ground triples are
// fixed points of every map, so only non-ground t need be tried.) The
// problem is coNP-complete (Theorem 3.12), so exponential behaviour on
// adversarial inputs is expected.
func IsLean(g *graph.Graph) bool {
	lean, _ := IsLeanCtx(context.Background(), g)
	return lean
}

// IsLeanCtx is IsLean under a context: the underlying map searches poll
// ctx and abort with its error when it is cancelled.
func IsLeanCtx(ctx context.Context, g *graph.Graph) (bool, error) {
	_, proper, err := findProperRetraction(ctx, g)
	if err != nil {
		return false, err
	}
	return !proper, nil
}

// findProperRetraction returns a map μ with μ(G) ⊊ G, if one exists.
func findProperRetraction(ctx context.Context, g *graph.Graph) (graph.Map, bool, error) {
	for _, t := range g.NonGroundTriples() {
		mu, ok, err := hom.FindMapCtx(ctx, g, g.Without(t))
		if err != nil {
			return nil, false, err
		}
		if ok {
			return mu, true, nil
		}
	}
	return nil, false, nil
}

// Core returns core(G): the unique (up to isomorphism) lean subgraph of G
// that is an instance of G (Theorem 3.10). The second return value is the
// composed retraction map μ with μ(G) = core(G).
//
// The algorithm iteratively retracts: while a map μ with μ(G) ⊊ G exists,
// replace G by μ(G). Each step removes at least one triple, so at most
// |G| homomorphism searches of searches happen; each search is
// NP-complete in general (Theorem 3.12 makes this unavoidable).
func Core(g *graph.Graph) (*graph.Graph, graph.Map) {
	c, mu, _ := CoreCtx(context.Background(), g)
	return c, mu
}

// CoreCtx is Core under a context: each retraction's map search polls
// ctx and the computation aborts with its error when it is cancelled.
func CoreCtx(ctx context.Context, g *graph.Graph) (*graph.Graph, graph.Map, error) {
	cur := g.Clone()
	total := make(graph.Map)
	for {
		mu, proper, err := findProperRetraction(ctx, cur)
		if err != nil {
			return nil, nil, err
		}
		if !proper {
			return cur, total, nil
		}
		cur = mu.Apply(cur)
		total = total.Compose(mu)
	}
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
	cl, err := closure.ClCtx(ctx, g)
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
