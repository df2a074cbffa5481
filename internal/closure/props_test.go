package closure

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func randClosureGraph(rng *rand.Rand, n int) *graph.Graph {
	names := []term.Term{iri("a"), iri("b"), iri("c"), blk("x"), blk("y")}
	preds := []term.Term{
		iri("p"), iri("q"), rdfs.SubClassOf, rdfs.SubPropertyOf,
		rdfs.Type, rdfs.Domain, rdfs.Range,
	}
	g := graph.New()
	for k := 0; k < n; k++ {
		g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
	}
	return g
}

// randVocabAsDataGraph is randClosureGraph with reserved vocabulary
// also appearing in subject/object position, which pushes Membership
// onto its materialized-closure fallback and exercises the saturation
// corner cases (sp edges into dom/range, reflexive reserved loops).
func randVocabAsDataGraph(rng *rand.Rand, n int) *graph.Graph {
	names := []term.Term{
		iri("a"), iri("b"), iri("c"), blk("x"), blk("y"),
		rdfs.Domain, rdfs.Range, rdfs.Type,
	}
	preds := []term.Term{
		iri("p"), iri("q"), rdfs.SubClassOf, rdfs.SubPropertyOf,
		rdfs.Type, rdfs.Domain, rdfs.Range,
	}
	g := graph.New()
	for k := 0; k < n; k++ {
		g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
	}
	return g
}

func TestClosureMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for round := 0; round < 40; round++ {
		g := randClosureGraph(rng, 6)
		h := g.Clone()
		h.Add(graph.T(iri("extra"), iri("p"), iri("extra2")))
		clG, clH := RDFSCl(g), RDFSCl(h)
		if !clG.SubgraphOf(clH) {
			t.Fatalf("round %d: closure not monotone:\nG:\n%v\nonly in cl(G): %v",
				round, g, clG.Minus(clH))
		}
	}
}

func TestClosureUnionSuperset(t *testing.T) {
	// cl(G1 ∪ G2) ⊇ cl(G1) ∪ cl(G2); equality can fail (cross rules).
	rng := rand.New(rand.NewSource(53))
	for round := 0; round < 30; round++ {
		g1 := randClosureGraph(rng, 4)
		g2 := randClosureGraph(rng, 4)
		u := RDFSCl(graph.Union(g1, g2))
		if !RDFSCl(g1).SubgraphOf(u) || !RDFSCl(g2).SubgraphOf(u) {
			t.Fatalf("round %d: closure of union misses operand closure", round)
		}
	}
}

func TestClosureInflationary(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for round := 0; round < 40; round++ {
		g := randClosureGraph(rng, 6)
		if !g.SubgraphOf(RDFSCl(g)) {
			t.Fatalf("round %d: closure dropped input triples", round)
		}
	}
}

func TestClosureIdempotentRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for round := 0; round < 25; round++ {
		g := randClosureGraph(rng, 6)
		c1 := RDFSCl(g)
		if !RDFSCl(c1).Equal(c1) {
			t.Fatalf("round %d: closure not idempotent on\n%v", round, g)
		}
	}
}

func TestClosureCommutesWithSkolemization(t *testing.T) {
	// Lemma 3.4 in property form: RDFS-cl(G) = (RDFS-cl(G*))⋆.
	rng := rand.New(rand.NewSource(59))
	for round := 0; round < 40; round++ {
		g := randClosureGraph(rng, 6)
		direct := RDFSCl(g)
		viaSkolem := graph.Unskolemize(RDFSCl(graph.Skolemize(g)))
		if !direct.Equal(viaSkolem) {
			t.Fatalf("round %d: Lemma 3.4 violated on\n%v\nonly-direct: %v\nonly-skolem: %v",
				round, g, direct.Minus(viaSkolem), viaSkolem.Minus(direct))
		}
	}
}

func TestMembershipNeverFalseNegativeOnInput(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for round := 0; round < 40; round++ {
		g := randClosureGraph(rng, 6)
		mem := NewMembership(g)
		g.Each(func(tr graph.Triple) bool {
			if !mem.Contains(tr) {
				t.Fatalf("round %d: input triple %v not in its own closure", round, tr)
			}
			return true
		})
	}
}

func TestClosureWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for round := 0; round < 40; round++ {
		g := randClosureGraph(rng, 7)
		RDFSCl(g).Each(func(tr graph.Triple) bool {
			if !tr.WellFormed() {
				t.Fatalf("round %d: ill-formed closure triple %v", round, tr)
			}
			return true
		})
	}
}

// TestClosureCancellation: a dead context fails immediately; a context
// cancelled mid-saturation aborts the engine with its error (never a
// partial graph).
func TestClosureCancellation(t *testing.T) {
	g := scChain(220)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := RDFSClCtx(dead, g); err == nil || out != nil {
		t.Fatalf("RDFSClCtx: want error on dead context, got graph=%v err=%v", out != nil, err)
	}
	if out, err := ClCtx(dead, g); err == nil || out != nil {
		t.Fatalf("ClCtx: want error on dead context, got graph=%v err=%v", out != nil, err)
	}

	// Mid-run cancellation: either the engine finished first (and must
	// be exactly right) or it must surface ctx's error with no graph.
	want := RDFSCl(g)
	for trial := 0; trial < 6; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(trial)*200*time.Microsecond)
		out, err := RDFSClCtx(ctx, g)
		cancel()
		switch {
		case err != nil:
			if out != nil {
				t.Fatalf("trial %d: error %v returned together with a graph", trial, err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
		case !out.Equal(want):
			t.Fatalf("trial %d: uncancelled run produced a wrong closure", trial)
		}
	}
}
