// Package hom implements maps between RDF graphs — the homomorphisms
// μ : UB → UB preserving URIs of Section 2.1 — and the derived notions
// the paper's characterizations are built on: existence and enumeration
// of maps G' → G, instances, and isomorphism of RDF graphs.
//
// By Theorem 2.8, simple-graph entailment G1 ⊨ G2 is exactly the
// existence of a map G2 → G1, and general RDFS entailment is the
// existence of a map G2 → cl(G1); this package supplies that primitive.
package hom

import (
	"context"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

// blankUnknown treats blank nodes as the unknowns of the search: a map
// fixes URIs (and literals) and moves only blanks.
func blankUnknown(t term.Term) bool { return t.IsBlank() }

// Finder performs repeated map searches into the graph of a fixed
// index. The terms of the searched graphs are interned into a scratch
// overlay of the index dictionary, one overlay per Finder, so searching
// never grows the destination's dictionary. A Finder is safe for
// concurrent use.
type Finder struct {
	ix *match.Index
	d  *dict.Dict // scratch overlay of ix.Dict()
}

// NewFinder builds a Finder for maps into the graph of ix.
func NewFinder(ix *match.Index) *Finder {
	return &Finder{ix: ix, d: ix.Dict().Scratch()}
}

// solver returns a search with blank nodes as the unknowns, interning
// through the Finder's overlay.
func (f *Finder) solver(opts match.Options) *match.Solver {
	opts.IsUnknown, opts.Dict = blankUnknown, f.d
	return match.NewSolver(f.ix, opts)
}

// Find returns a map μ with μ(src) ⊆ dst, if one exists.
func (f *Finder) Find(src *graph.Graph) (graph.Map, bool) {
	b, ok, _ := f.FindCtx(context.Background(), src.Triples())
	if !ok {
		return nil, false
	}
	return graph.Map(b.Terms(f.d)), true
}

// FindCtx returns a map μ with μ(ps) ⊆ dst, if one exists, as a binding
// of the blanks of ps over IDs of dst's dictionary (or of the Finder's
// overlay, for terms dst lacks). The search polls ctx and aborts with
// its error when it is cancelled.
func (f *Finder) FindCtx(ctx context.Context, ps []graph.Triple) (match.Binding, bool, error) {
	solver := f.solver(match.Options{Ctx: ctx})
	b, ok, _ := solver.First(ps)
	if err := solver.Err(); err != nil {
		return nil, false, err
	}
	return b, ok, nil
}

// FindBudget is Find with a bounded search budget. The third result is
// false when the budget was exhausted before the search space was covered
// (the answer is then inconclusive if no map was found).
func (f *Finder) FindBudget(src *graph.Graph, maxSteps int) (graph.Map, bool, bool) {
	b, ok, complete := f.solver(match.Options{MaxSteps: maxSteps}).First(src.Triples())
	if !ok {
		return nil, false, complete
	}
	return graph.Map(b.Terms(f.d)), true, true
}

// Enumerate yields every map μ with μ(src) ⊆ dst until yield returns
// false. It reports whether the enumeration covered the full space.
func (f *Finder) Enumerate(src *graph.Graph, yield func(graph.Map) bool) bool {
	return f.enumerate(src, match.Options{}, yield)
}

// enumerate is Enumerate under extra search options.
func (f *Finder) enumerate(src *graph.Graph, opts match.Options, yield func(graph.Map) bool) bool {
	return f.solver(opts).Solve(src.Triples(), func(b match.Binding) bool {
		return yield(graph.Map(b.Terms(f.d)))
	})
}

// FindMap returns a map μ : src → dst (i.e. μ(src) ⊆ dst), if one exists.
// This is the paper's overloaded "map μ : G1 → G2" (Section 2.1).
func FindMap(src, dst *graph.Graph) (graph.Map, bool) {
	return NewFinder(match.NewIndex(dst)).Find(src)
}

// ExistsMap reports whether there is a map src → dst.
func ExistsMap(src, dst *graph.Graph) bool {
	_, ok := FindMap(src, dst)
	return ok
}

// AllMaps returns every map src → dst, up to limit (0 = no limit).
func AllMaps(src, dst *graph.Graph, limit int) []graph.Map {
	var out []graph.Map
	NewFinder(match.NewIndex(dst)).Enumerate(src, func(m graph.Map) bool {
		out = append(out, m)
		return limit == 0 || len(out) < limit
	})
	return out
}

// CountMaps returns the number of maps src → dst, stopping at limit
// (0 = no limit).
func CountMaps(src, dst *graph.Graph, limit int) int {
	n := 0
	NewFinder(match.NewIndex(dst)).Enumerate(src, func(graph.Map) bool {
		n++
		return limit == 0 || n < limit
	})
	return n
}

// IsProperInstanceMap reports whether μ(g) is a proper instance of g:
// μ sends some blank to a URI/literal or identifies two blanks of g,
// i.e. μ(g) has fewer blank nodes than g (Section 2.1).
func IsProperInstanceMap(g *graph.Graph, m graph.Map) bool {
	return len(m.Apply(g).BlankNodes()) < len(g.BlankNodes())
}

// Isomorphic reports G1 ≅ G2: existence of maps μ1, μ2 with μ1(G1) = G2
// and μ2(G2) = G1 (Section 2.1). For finite graphs this is equivalent to
// the existence of a blank-renaming bijection carrying G1 exactly onto
// G2, which is what is searched for here.
func Isomorphic(g1, g2 *graph.Graph) bool {
	_, ok := FindIsomorphism(g1, g2)
	return ok
}

// FindIsomorphism returns a blank-bijection witnessing G1 ≅ G2, if any.
func FindIsomorphism(g1, g2 *graph.Graph) (graph.Map, bool) {
	n := len(g1.BlankIDs())
	if g1.Len() != g2.Len() || n != len(g2.BlankIDs()) {
		return nil, false
	}
	if n == 0 { // no blanks: the identity, if anything
		if !g1.Equal(g2) {
			return nil, false
		}
		return graph.Map{}, true
	}
	// Ground triples must coincide exactly: a blank-to-blank bijection
	// cannot move them.
	if !g1.GroundPart().Equal(g2.GroundPart()) {
		return nil, false
	}
	var iso graph.Map
	bijections(g1, g2, func(m graph.Map) bool {
		iso = m
		return false
	})
	return iso, iso != nil
}

// Automorphisms returns the blank-renaming bijections g → g (limit 0 = no
// limit). The identity is always included.
func Automorphisms(g *graph.Graph, limit int) []graph.Map {
	var out []graph.Map
	bijections(g, g, func(m graph.Map) bool {
		out = append(out, m)
		return limit == 0 || len(out) < limit
	})
	return out
}

// bijections yields the blank renamings μ with μ(g1) = g2 until yield
// returns false. The search is for injective blank(g1) → blank(g2)
// assignments with μ(g1) ⊆ g2; equality is checked per candidate.
func bijections(g1, g2 *graph.Graph, yield func(graph.Map) bool) {
	blanks := g2.BlankIDs()
	opts := match.Options{
		Injective: true,
		Admissible: func(_, value dict.ID) bool {
			_, ok := blanks[value]
			return ok
		},
	}
	NewFinder(match.NewIndex(g2)).enumerate(g1, opts, func(m graph.Map) bool {
		return !m.Apply(g1).Equal(g2) || yield(m)
	})
}
