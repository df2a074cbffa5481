// Package entail implements RDFS entailment between RDF graphs through
// the map characterization of Theorem 2.8:
//
//	G1 ⊨ G2  iff  there is a map μ : G2 → RDFS-cl(G1), and
//	G1 ⊨ G2  iff  there is a map μ : G2 → G1       (both graphs simple).
//
// The deductive system of Section 2.3.2 (package rdfs) and the model
// theory (package mt) provide two independent decision paths that the
// test suite cross-validates against this one (Theorem 2.6).
package entail

import (
	"context"

	"semwebdb/internal/closure"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/rdfs"
)

// Checker decides entailments from a fixed left-hand graph, computing
// its closure once. Use it when testing many candidate consequences of
// the same graph (the data-complexity regime of Section 2.4).
type Checker struct {
	g      *graph.Graph
	cl     *graph.Graph
	finder *hom.Finder
	simple bool

	// full closure and finder, lazily built when a simple left-hand side
	// meets a non-simple right-hand side.
	fullFinder *hom.Finder
}

// NewChecker prepares entailment checking from g.
func NewChecker(g *graph.Graph) *Checker {
	c, _ := NewCheckerCtx(context.Background(), g)
	return c
}

// NewCheckerCtx is NewChecker under a context: the closure computation
// polls ctx and aborts with its error when cancelled.
func NewCheckerCtx(ctx context.Context, g *graph.Graph) (*Checker, error) {
	c := &Checker{g: g, simple: rdfs.IsSimple(g)}
	if c.simple {
		// For simple G1, a simple G2 maps into cl(G1) iff it maps into
		// G1 itself: the closure only adds reserved-vocabulary triples,
		// which patterns without reserved predicates cannot match.
		c.cl = g
	} else {
		cl, err := closure.RDFSClCtx(ctx, g)
		if err != nil {
			return nil, err
		}
		c.cl = cl
	}
	c.finder = hom.NewFinder(c.cl)
	return c, nil
}

// Closure returns the materialized closure used by the checker (G itself
// when G is simple).
func (c *Checker) Closure() *graph.Graph { return c.cl }

// Entails reports G ⊨ h.
func (c *Checker) Entails(h *graph.Graph) bool {
	_, ok := c.Witness(h)
	return ok
}

// Witness returns a map μ : h → cl(G) witnessing G ⊨ h, if any.
func (c *Checker) Witness(h *graph.Graph) (graph.Map, bool) {
	m, ok, _ := c.WitnessCtx(context.Background(), h)
	return m, ok
}

// WitnessCtx is Witness under a context: the map search polls ctx and
// aborts with its error when it is cancelled.
func (c *Checker) WitnessCtx(ctx context.Context, h *graph.Graph) (graph.Map, bool, error) {
	if c.simple && !rdfs.IsSimple(h) {
		// A simple left-hand side still entails reserved-vocabulary
		// reflexivity triples; use the real closure for such h.
		if c.fullFinder == nil {
			full, err := closure.RDFSClCtx(ctx, c.g)
			if err != nil {
				return nil, false, err
			}
			c.fullFinder = hom.NewFinder(full)
		}
		return c.fullFinder.FindCtx(ctx, h)
	}
	return c.finder.FindCtx(ctx, h)
}

// Entails reports G1 ⊨ G2 under the full RDFS semantics.
func Entails(g1, g2 *graph.Graph) bool {
	return NewChecker(g1).Entails(g2)
}

// EntailsCtx is Entails under a context: both the closure of g1 and the
// map search poll ctx and abort with its error when it is cancelled.
func EntailsCtx(ctx context.Context, g1, g2 *graph.Graph) (bool, error) {
	c, err := NewCheckerCtx(ctx, g1)
	if err != nil {
		return false, err
	}
	_, ok, err := c.WitnessCtx(ctx, g2)
	return ok, err
}

// SimpleEntails reports G1 ⊨ G2 for simple graphs, via the map
// characterization of Theorem 2.8(2). It must only be used when both
// graphs are simple; Entails dispatches automatically.
func SimpleEntails(g1, g2 *graph.Graph) bool {
	return hom.ExistsMap(g2, g1)
}

// Equivalent reports G1 ≡ G2, i.e. G1 ⊨ G2 and G2 ⊨ G1.
func Equivalent(g1, g2 *graph.Graph) bool {
	return Entails(g1, g2) && Entails(g2, g1)
}

// EquivalentCtx is Equivalent under a context (see EntailsCtx).
func EquivalentCtx(ctx context.Context, g1, g2 *graph.Graph) (bool, error) {
	ok, err := EntailsCtx(ctx, g1, g2)
	if err != nil || !ok {
		return false, err
	}
	return EntailsCtx(ctx, g2, g1)
}

// EntailsWithProof decides G1 ⊨ G2 and, when it holds, returns a checked
// proof in the deductive system (Definition 2.5, Theorem 2.6).
func EntailsWithProof(g1, g2 *graph.Graph) (*rdfs.Proof, bool) {
	return rdfs.Prove(g1, g2)
}
