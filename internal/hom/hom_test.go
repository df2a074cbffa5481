package hom

import (
	"fmt"
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }

// encCycle returns enc(C_n): the RDF encoding of the directed cycle with n
// nodes, all blanks (Section 2.4 encoding).
func encCycle(n int, label string) *graph.Graph {
	g := graph.New()
	e := iri("e")
	for i := 0; i < n; i++ {
		g.Add(graph.T(blk(fmt.Sprintf("%s%d", label, i)), e, blk(fmt.Sprintf("%s%d", label, (i+1)%n))))
	}
	return g
}

// encClique returns enc(K_n) with URI nodes (so it is rigid).
func encClique(n int) *graph.Graph {
	g := graph.New()
	e := iri("e")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Add(graph.T(iri(fmt.Sprintf("k%d", i)), e, iri(fmt.Sprintf("k%d", j))))
			}
		}
	}
	return g
}

// encCliqueBlank returns enc(K_n) with blank nodes.
func encCliqueBlank(n int, label string) *graph.Graph {
	g := graph.New()
	e := iri("e")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.Add(graph.T(blk(fmt.Sprintf("%s%d", label, i)), e, blk(fmt.Sprintf("%s%d", label, j))))
			}
		}
	}
	return g
}

func TestFindMapIdentityAlwaysExists(t *testing.T) {
	g := graph.New(
		graph.T(blk("x"), iri("p"), blk("y")),
		graph.T(blk("y"), iri("p"), iri("a")),
	)
	if !ExistsMap(g, g) {
		t.Fatal("identity map not found")
	}
}

func TestFindMapSimple(t *testing.T) {
	// G2 = {(X,p,b)}, G1 = {(a,p,b)}: map X→a exists.
	g1 := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	g2 := graph.New(graph.T(blk("X"), iri("p"), iri("b")))
	mu, ok := FindMap(g2, g1)
	if !ok {
		t.Fatal("expected a map")
	}
	if mu.Of(blk("X")) != iri("a") {
		t.Fatalf("X ↦ %v, want a", mu.Of(blk("X")))
	}
	if !mu.Apply(g2).SubgraphOf(g1) {
		t.Fatal("map image not a subgraph")
	}
	// No map the other way: a is a URI and must be preserved.
	if ExistsMap(g1, g2) {
		t.Fatal("map from ground graph into non-matching graph")
	}
}

func TestOddCycleToTriangle(t *testing.T) {
	// Graph-coloring folklore via the paper's enc(·): C_n maps into K_3
	// iff n is even or n ≥ 3 is odd... precisely: an odd cycle is
	// 3-colorable, an even cycle 2-colorable; both map into K3 for n ≥ 3.
	// C_5 → C_3? No: a homomorphism of an odd cycle into a shorter odd
	// cycle does not exist.
	k3 := encClique(3)
	for _, n := range []int{3, 4, 5, 6, 7} {
		if !ExistsMap(encCycle(n, "c"), k3) {
			t.Errorf("C_%d must map into K_3", n)
		}
	}
	// C_5 into C_3 must fail (odd girth obstruction).
	if ExistsMap(encCycle(5, "a"), encCycle(3, "b")) {
		t.Error("C_5 → C_3 must not exist")
	}
	// C_4 into C_2 (a double edge) exists: alternate the two nodes.
	if !ExistsMap(encCycle(4, "a"), encCycle(2, "b")) {
		t.Error("C_4 → C_2 must exist")
	}
}

func TestHomomorphismComposition(t *testing.T) {
	// C_6 → C_3 → K_3: composition through maps.
	c6, c3 := encCycle(6, "a"), encCycle(3, "b")
	m1, ok1 := FindMap(c6, c3)
	m2, ok2 := FindMap(c3, encClique(3))
	if !ok1 || !ok2 {
		t.Fatal("expected maps")
	}
	comp := m1.Compose(m2)
	if !comp.Apply(c6).SubgraphOf(encClique(3)) {
		t.Fatal("composition is not a map")
	}
}

func TestAllMapsCount(t *testing.T) {
	// {(X,p,Y)} into a graph with 3 p-triples: 3 maps.
	dst := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("c"), iri("p"), iri("d")),
		graph.T(iri("e"), iri("p"), iri("f")),
	)
	src := graph.New(graph.T(blk("X"), iri("p"), blk("Y")))
	if n := CountMaps(src, dst, 0); n != 3 {
		t.Fatalf("CountMaps = %d, want 3", n)
	}
	if got := AllMaps(src, dst, 2); len(got) != 2 {
		t.Fatalf("AllMaps with limit: %d, want 2", len(got))
	}
}

func TestIsProperInstanceMap(t *testing.T) {
	g := graph.New(graph.T(blk("X"), iri("p"), blk("Y")))
	if IsProperInstanceMap(g, graph.Map{}) {
		t.Fatal("identity is not proper")
	}
	if !IsProperInstanceMap(g, graph.Map{blk("X"): iri("a")}) {
		t.Fatal("blank→URI is proper")
	}
	if !IsProperInstanceMap(g, graph.Map{blk("X"): blk("Y")}) {
		t.Fatal("blank identification is proper")
	}
	if IsProperInstanceMap(g, graph.Map{blk("X"): blk("Z"), blk("Y"): blk("X")}) {
		t.Fatal("blank renaming is not proper")
	}
}

func TestIsomorphicBasic(t *testing.T) {
	g1 := graph.New(graph.T(blk("x"), iri("p"), blk("y")))
	g2 := graph.New(graph.T(blk("u"), iri("p"), blk("v")))
	if !Isomorphic(g1, g2) {
		t.Fatal("renaming-isomorphic graphs rejected")
	}
	g3 := graph.New(graph.T(blk("u"), iri("p"), blk("u")))
	if Isomorphic(g1, g3) {
		t.Fatal("loop vs edge accepted")
	}
	// Although hom-equivalent, C_3 and C_6 are not isomorphic.
	if Isomorphic(encCycle(3, "a"), encCycle(6, "b")) {
		t.Fatal("C_3 ≅ C_6 accepted")
	}
	if !Isomorphic(encCycle(4, "a"), encCycle(4, "b")) {
		t.Fatal("C_4 ≅ C_4 rejected")
	}
}

func TestIsomorphicGroundMismatch(t *testing.T) {
	g1 := graph.New(graph.T(iri("a"), iri("p"), iri("b")), graph.T(blk("x"), iri("p"), iri("b")))
	g2 := graph.New(graph.T(iri("a"), iri("p"), iri("c")), graph.T(blk("x"), iri("p"), iri("c")))
	if Isomorphic(g1, g2) {
		t.Fatal("isomorphism cannot change ground triples")
	}
}

func TestFindIsomorphismWitness(t *testing.T) {
	g1 := encCycle(5, "a")
	g2 := encCycle(5, "b")
	iso, ok := FindIsomorphism(g1, g2)
	if !ok {
		t.Fatal("expected isomorphism")
	}
	if !iso.Apply(g1).Equal(g2) {
		t.Fatal("witness does not carry g1 onto g2")
	}
	if _, ok := FindIsomorphism(encCycle(5, "a"), encCycle(4, "b")); ok {
		t.Fatal("C_5 ≅ C_4 accepted")
	}
}

func TestKliqueIntoKClique(t *testing.T) {
	// K_n (blank) maps into K_m (URI) iff n ≤ m (needs injectivity on a
	// clique, enforced by the edge structure: no loops in K_m).
	k3 := encClique(3)
	if !ExistsMap(encCliqueBlank(3, "x"), k3) {
		t.Fatal("K_3 → K_3 must exist")
	}
	if ExistsMap(encCliqueBlank(4, "x"), k3) {
		t.Fatal("K_4 → K_3 must not exist")
	}
}

func TestAutomorphisms(t *testing.T) {
	// C_4 with blank nodes has 4 rotations + 4 reflections = 8
	// automorphisms as a directed cycle... directed: only 4 rotations.
	autos := Automorphisms(encCycle(4, "a"), 0)
	if len(autos) != 4 {
		t.Fatalf("automorphisms of directed C_4 = %d, want 4", len(autos))
	}
	for _, m := range autos {
		if !m.Apply(encCycle(4, "a")).Equal(encCycle(4, "a")) {
			t.Fatal("non-automorphism returned")
		}
	}
}

// TestFinderReuse: one Finder answers repeated searches with checked
// witnesses, and interns the searched graphs' terms into its own
// overlay — never into the destination's dictionary.
func TestFinderReuse(t *testing.T) {
	dst := encClique(3)
	dst.Add(graph.T(iri("k0"), iri("type"), iri("B")))
	terms := dst.Dict().Len()
	f := NewFinder(match.NewIndex(dst))
	for n := 3; n <= 6; n++ {
		src := encCycle(n, "c")
		mu, ok := f.Find(src)
		if !ok {
			t.Fatalf("C_%d → K_3 via reused finder failed", n)
		}
		if !mu.Apply(src).SubgraphOf(dst) {
			t.Fatalf("C_%d: witness %v does not map into K_3", n, mu)
		}
	}
	mu, ok := f.Find(graph.New(graph.T(blk("W"), iri("type"), iri("B"))))
	if !ok || mu.Of(blk("W")) != iri("k0") {
		t.Fatalf("witness maps W to %v (found %v), want k0", mu.Of(blk("W")), ok)
	}
	if _, ok := f.Find(graph.New(graph.T(blk("W"), iri("type"), iri("C")))); ok {
		t.Fatal("map into an absent class found")
	}
	if n := dst.Dict().Len(); n != terms {
		t.Fatalf("searches grew the destination dictionary %d -> %d", terms, n)
	}
}

func TestFindBudget(t *testing.T) {
	// Exhaust the budget on a hard unsatisfiable instance: K_5 → K_4.
	_, found, complete := NewFinder(match.NewIndex(encClique(4))).FindBudget(encCliqueBlank(5, "x"), 10)
	if found {
		t.Fatal("impossible map found")
	}
	if complete {
		t.Fatal("tiny budget cannot complete K_5 → K_4 search")
	}
	_, found2, complete2 := NewFinder(match.NewIndex(encClique(4))).FindBudget(encCliqueBlank(4, "x"), 1_000_000)
	if !found2 || !complete2 {
		t.Fatalf("K_4 → K_4: found=%v complete=%v", found2, complete2)
	}
}

// TestFindBudgetSkipsGroundPatterns: ground triples of the source are
// membership checks, not search steps, so a graph of ~1 000 ground
// triples and one blank triple maps into itself within a budget of 100.
func TestFindBudgetSkipsGroundPatterns(t *testing.T) {
	g := graph.New(graph.T(blk("x"), iri("p"), iri("o0")))
	for i := 0; i < 1000; i++ {
		g.Add(graph.T(iri(fmt.Sprintf("s%d", i)), iri("p"), iri(fmt.Sprintf("o%d", i))))
	}
	m, found, complete := NewFinder(match.NewIndex(g)).FindBudget(g, 100)
	if !found || !complete {
		t.Fatalf("ground-heavy self map: found=%v complete=%v, want both", found, complete)
	}
	if !m.Apply(g).SubgraphOf(g) {
		t.Fatal("the map found does not send g into itself")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	dst := encClique(3)
	src := graph.New(graph.T(blk("X"), iri("e"), blk("Y")))
	n := 0
	NewFinder(match.NewIndex(dst)).Enumerate(src, func(graph.Map) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop failed: %d", n)
	}
}
