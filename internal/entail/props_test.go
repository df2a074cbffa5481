package entail

import (
	"fmt"
	"math/rand"
	"testing"

	"semwebdb/internal/closure"
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func randMixedGraph(rng *rand.Rand, n int) *graph.Graph {
	names := []term.Term{
		term.NewIRI("urn:t:a"), term.NewIRI("urn:t:b"), term.NewIRI("urn:t:c"),
		term.NewBlank("x"), term.NewBlank("y"),
	}
	preds := []term.Term{
		term.NewIRI("urn:t:p"), term.NewIRI("urn:t:q"),
		rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Type,
	}
	g := graph.New()
	for k := 0; k < n; k++ {
		g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
	}
	return g
}

func TestEntailmentTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for round := 0; round < 200 && checked < 25; round++ {
		g1 := randMixedGraph(rng, 6)
		g2 := randMixedGraph(rng, 3)
		g3 := randMixedGraph(rng, 2)
		if Entails(g1, g2) && Entails(g2, g3) {
			checked++
			if !Entails(g1, g3) {
				t.Fatalf("transitivity violated:\nG1:\n%v\nG2:\n%v\nG3:\n%v", g1, g2, g3)
			}
		}
	}
	if checked == 0 {
		t.Skip("no chained entailments generated")
	}
}

func TestEntailmentReflexiveOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for round := 0; round < 25; round++ {
		g := randMixedGraph(rng, 6)
		if !Entails(g, g) {
			t.Fatalf("G ⊭ G for\n%v", g)
		}
	}
}

func TestClosureIsMaximalEntailedSet(t *testing.T) {
	// Every triple of cl(G) over universe(G) is entailed by G, and G
	// entails cl(G) as a whole.
	rng := rand.New(rand.NewSource(35))
	for round := 0; round < 10; round++ {
		g := randMixedGraph(rng, 5)
		cl := closure.RDFSCl(g)
		if !Entails(g, cl) {
			t.Fatalf("G ⊭ cl(G):\n%v", g)
		}
		cl.Each(func(tr graph.Triple) bool {
			if !Entails(g, graph.New(tr)) {
				t.Fatalf("closure triple not entailed: %v of\n%v", tr, g)
			}
			return true
		})
	}
}

func TestEntailmentInvariantUnderBlankRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for round := 0; round < 25; round++ {
		g1 := randMixedGraph(rng, 6)
		g2 := randMixedGraph(rng, 3)
		ren := make(graph.Map)
		for i, b := range g2.BlankNodeList() {
			ren[b] = term.NewBlank(fmt.Sprintf("renamed%d", i))
		}
		g2r := ren.Apply(g2)
		if Entails(g1, g2) != Entails(g1, g2r) {
			t.Fatalf("entailment sensitive to blank renaming:\nG1:\n%v\nG2:\n%v", g1, g2)
		}
	}
}

func TestUnionEntailsBothOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for round := 0; round < 25; round++ {
		g1 := randMixedGraph(rng, 4)
		g2 := randMixedGraph(rng, 4)
		u := graph.Union(g1, g2)
		if !Entails(u, g1) || !Entails(u, g2) {
			t.Fatal("union does not entail its operands")
		}
		// Merge also entails both (the copy is isomorphic).
		m := graph.Merge(g1, g2)
		if !Entails(m, g1) || !Entails(m, g2) {
			t.Fatal("merge does not entail its operands")
		}
	}
}

func TestGroundEntailmentIsSubset(t *testing.T) {
	// For ground graphs, simple entailment degenerates to ⊇.
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 30; round++ {
		g1, g2 := graph.New(), graph.New()
		for k := 0; k < 5; k++ {
			tr := graph.T(
				term.NewIRI(fmt.Sprintf("urn:g:%d", rng.Intn(3))),
				term.NewIRI("urn:g:p"),
				term.NewIRI(fmt.Sprintf("urn:g:%d", rng.Intn(3))))
			g1.Add(tr)
			if rng.Intn(2) == 0 {
				g2.Add(tr)
			}
		}
		if got, want := SimpleEntails(g1, g2), g2.SubgraphOf(g1); got != want {
			t.Fatalf("ground entailment ≠ containment: %v vs %v", got, want)
		}
	}
}
