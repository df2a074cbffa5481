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
	"semwebdb/internal/match"
)

// Entails reports G1 ⊨ G2 under the full RDFS semantics.
func Entails(g1, g2 *graph.Graph) bool {
	ok, _ := EntailsCtx(context.Background(), g1, g2)
	return ok
}

// EntailsCtx is Entails under a context: both the closure of g1 and the
// map search poll ctx and abort with its error when it is cancelled.
// It saturates g1 into RDFS-cl(g1) and searches one map g2 → RDFS-cl(g1)
// with the blank nodes of g2 as unknowns (Theorem 2.8). On simple g1 and
// g2 this is the simple-entailment test of Theorem 2.8(2): the closure
// adds only triples with a reserved predicate, which a simple g2 cannot
// match.
func EntailsCtx(ctx context.Context, g1, g2 *graph.Graph) (bool, error) {
	cl, err := closure.RDFSClCtx(ctx, g1)
	if err != nil {
		return false, err
	}
	_, ok, err := hom.NewFinder(match.NewIndex(cl)).FindCtx(ctx, g2.Triples())
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
