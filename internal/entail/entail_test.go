package entail

import (
	"fmt"
	"math/rand"
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }

func TestSimpleEntailmentIsMapExistence(t *testing.T) {
	g1 := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("b"), iri("p"), iri("c")),
	)
	// G2 asks: is there something p-related to b? Yes (X→a).
	g2 := graph.New(graph.T(blk("X"), iri("p"), iri("b")))
	if !Entails(g1, g2) {
		t.Fatal("expected entailment")
	}
	// And something p-related FROM c? No.
	g3 := graph.New(graph.T(iri("c"), iri("p"), blk("X")))
	if Entails(g1, g3) {
		t.Fatal("unexpected entailment")
	}
	if !SimpleEntails(g1, g2) || SimpleEntails(g1, g3) {
		t.Fatal("SimpleEntails disagrees")
	}
}

func TestEntailmentReflexive(t *testing.T) {
	g := graph.New(graph.T(blk("x"), iri("p"), blk("y")))
	if !Entails(g, g) {
		t.Fatal("G ⊨ G must hold")
	}
	if !Equivalent(g, g) {
		t.Fatal("G ≡ G must hold")
	}
}

func TestSubgraphEntailed(t *testing.T) {
	g1 := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("c"), iri("q"), iri("d")),
	)
	g2 := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	if !Entails(g1, g2) {
		t.Fatal("supergraph must entail subgraph")
	}
	if Entails(g2, g1) {
		t.Fatal("subgraph must not entail strict supergraph with new content")
	}
}

func TestRDFSEntailmentThroughClosure(t *testing.T) {
	g1 := graph.New(
		graph.T(iri("son"), rdfs.SubPropertyOf, iri("child")),
		graph.T(iri("child"), rdfs.SubPropertyOf, iri("relative")),
		graph.T(iri("tom"), iri("son"), iri("mary")),
	)
	cases := []struct {
		h    *graph.Graph
		want bool
	}{
		{graph.New(graph.T(iri("tom"), iri("relative"), iri("mary"))), true},
		{graph.New(graph.T(iri("son"), rdfs.SubPropertyOf, iri("relative"))), true},
		{graph.New(graph.T(blk("X"), iri("child"), iri("mary"))), true},
		{graph.New(graph.T(iri("mary"), iri("relative"), iri("tom"))), false},
		{graph.New(graph.T(iri("relative"), rdfs.SubPropertyOf, iri("son"))), false},
	}
	for i, c := range cases {
		if got := Entails(g1, c.h); got != c.want {
			t.Errorf("case %d: Entails = %v, want %v", i, got, c.want)
		}
	}
}

func TestSimpleLHSNonSimpleRHS(t *testing.T) {
	// A simple graph still entails reflexivity triples of its own
	// predicates (rule 8) and of the vocabulary (rule 9).
	g := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	h1 := graph.New(graph.T(iri("p"), rdfs.SubPropertyOf, iri("p")))
	if !Entails(g, h1) {
		t.Fatal("rule (8) consequence not entailed by simple graph")
	}
	h2 := graph.New(graph.T(rdfs.Type, rdfs.SubPropertyOf, rdfs.Type))
	if !Entails(g, h2) {
		t.Fatal("rule (9) consequence not entailed")
	}
	h3 := graph.New(graph.T(iri("q"), rdfs.SubPropertyOf, iri("q")))
	if Entails(g, h3) {
		t.Fatal("unused predicate must not be sp-reflexive")
	}
}

func TestEquivalenceOfBlankVariants(t *testing.T) {
	// {(a,p,b)} ≡ {(a,p,b), (X,p,b)}: the extra blank triple is
	// redundant (maps onto the ground one).
	g1 := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	g2 := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(blk("X"), iri("p"), iri("b")),
	)
	if !Equivalent(g1, g2) {
		t.Fatal("blank-redundant variant not equivalent")
	}
}

func TestHomEquivalenceNPEncoding(t *testing.T) {
	// Theorem 2.9 flavor: the 3-colorability of a graph H is
	// G_{K3} ⊨ enc(H) with blank nodes. An odd cycle C5 is 3-colorable,
	// so K3 ⊨ enc(C5); C5 is not 2-colorable, so K2 ⊭ enc(C5).
	clique := func(n int) *graph.Graph {
		g := graph.New()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					g.Add(graph.T(iri(fmt.Sprintf("k%d", i)), iri("e"), iri(fmt.Sprintf("k%d", j))))
				}
			}
		}
		return g
	}
	cycle := func(n int) *graph.Graph {
		g := graph.New()
		for i := 0; i < n; i++ {
			g.Add(graph.T(blk(fmt.Sprintf("v%d", i)), iri("e"), blk(fmt.Sprintf("v%d", (i+1)%n))))
			g.Add(graph.T(blk(fmt.Sprintf("v%d", (i+1)%n)), iri("e"), blk(fmt.Sprintf("v%d", i))))
		}
		return g
	}
	if !Entails(clique(3), cycle(5)) {
		t.Fatal("K3 must entail enc(C5): C5 is 3-colorable")
	}
	if Entails(clique(2), cycle(5)) {
		t.Fatal("K2 must not entail enc(C5): C5 is not bipartite")
	}
	if !Entails(clique(2), cycle(4)) {
		t.Fatal("K2 must entail enc(C4): C4 is bipartite")
	}
}

func TestEntailmentMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	names := []term.Term{iri("a"), iri("b"), iri("c"), blk("x"), blk("y")}
	preds := []term.Term{iri("p"), iri("q"), rdfs.SubClassOf, rdfs.Type}
	for round := 0; round < 30; round++ {
		g := graph.New()
		for k := 0; k < 6; k++ {
			g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		h := graph.New()
		for k := 0; k < 3; k++ {
			h.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		bigger := graph.Union(g, graph.New(graph.T(iri("extra"), iri("r"), iri("extra2"))))
		if Entails(g, h) && !Entails(bigger, h) {
			t.Fatalf("monotonicity violated on round %d", round)
		}
	}
}

func TestEntailsWithProofAgreesWithEntails(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	names := []term.Term{iri("a"), iri("b"), blk("x")}
	preds := []term.Term{iri("p"), rdfs.SubPropertyOf, rdfs.SubClassOf, rdfs.Type, rdfs.Domain}
	for round := 0; round < 25; round++ {
		g := graph.New()
		for k := 0; k < 5; k++ {
			g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		h := graph.New()
		for k := 0; k < 2; k++ {
			h.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		semantic := Entails(g, h)
		proof, syntactic := rdfs.Prove(g, h)
		if semantic != syntactic {
			t.Fatalf("round %d: ⊨ (%v) and ⊢ (%v) disagree — Theorem 2.6 violated\nG:\n%v\nH:\n%v",
				round, semantic, syntactic, g, h)
		}
		if syntactic {
			if err := proof.Verify(g, h); err != nil {
				t.Fatalf("round %d: proof fails verification: %v", round, err)
			}
		}
	}
}
