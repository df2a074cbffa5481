package core

import (
	"fmt"
	"math/rand"
	"testing"

	"semwebdb/internal/closure"
	"semwebdb/internal/entail"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }

// example38G1 is G1 of Example 3.8: a --p--> X, a --p--> Y (not lean).
func example38G1() *graph.Graph {
	return graph.New(
		graph.T(iri("a"), iri("p"), blk("X")),
		graph.T(iri("a"), iri("p"), blk("Y")),
	)
}

// example38G2 is G2 of Example 3.8: a --p--> X --q--> Y --r--> b plus
// a --p--> Y? No: G2 is a --p--> X, a --p--> Y, X --q--> Y? The paper
// draws: a -p-> X, a -p-> Y, X -q-> (something), Y -r-> b; the essential
// point is that no proper self-map exists. We use the faithful reading:
// a -p-> X, X -q-> Y, Y -r-> b... kept lean by distinct predicates.
func example38G2() *graph.Graph {
	return graph.New(
		graph.T(iri("a"), iri("p"), blk("X")),
		graph.T(iri("a"), iri("p"), blk("Y")),
		graph.T(blk("X"), iri("q"), blk("Y")),
		graph.T(blk("Y"), iri("r"), iri("b")),
	)
}

func TestExample38Leanness(t *testing.T) {
	if IsLean(example38G1()) {
		t.Fatal("Example 3.8: G1 must not be lean")
	}
	if !IsLean(example38G2()) {
		t.Fatal("Example 3.8: G2 must be lean")
	}
}

func TestCoreOfExample38G1(t *testing.T) {
	c, mu := Core(example38G1())
	if c.Len() != 1 {
		t.Fatalf("core size = %d, want 1", c.Len())
	}
	if !IsLean(c) {
		t.Fatal("core not lean")
	}
	// The witness retraction must carry G onto the core.
	if !mu.Apply(example38G1()).Equal(c) {
		t.Fatal("retraction witness wrong")
	}
}

func TestGroundGraphsAreLean(t *testing.T) {
	g := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("b"), iri("p"), iri("c")),
	)
	if !IsLean(g) {
		t.Fatal("ground graphs are always lean")
	}
	c, _ := Core(g)
	if !c.Equal(g) {
		t.Fatal("core of ground graph must be itself")
	}
}

func TestCoreEquivalentToOriginal(t *testing.T) {
	g := example38G1()
	c, _ := Core(g)
	if !entail.Equivalent(g, c) {
		t.Fatal("G ≢ core(G)")
	}
}

func TestCoreIdempotent(t *testing.T) {
	g := example38G1()
	c1, _ := Core(g)
	c2, _ := Core(c1)
	if !c1.Equal(c2) {
		t.Fatal("core not idempotent")
	}
}

func TestCoreUniqueUpToIso(t *testing.T) {
	// Build graphs with layered redundancy; cores computed from shuffled
	// triple orders must be isomorphic (Theorem 3.10).
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		g := graph.New(
			graph.T(iri("a"), iri("p"), iri("b")),
			graph.T(iri("a"), iri("p"), blk("X")),
			graph.T(blk("X"), iri("q"), blk("Y")),
			graph.T(iri("a"), iri("q"), blk("Z")),
		)
		// Add random redundant blank copies of ground triples.
		for k := 0; k < rng.Intn(4); k++ {
			g.Add(graph.T(blk(fmt.Sprintf("R%d", k)), iri("p"), iri("b")))
		}
		c1, _ := Core(g)
		c2, _ := Core(g.Clone())
		if !hom.Isomorphic(c1, c2) {
			t.Fatalf("round %d: cores differ:\n%v\nvs\n%v", round, c1, c2)
		}
		if !IsLean(c1) {
			t.Fatalf("round %d: core not lean", round)
		}
	}
}

func TestIsCoreOf(t *testing.T) {
	g := example38G1()
	single := graph.New(graph.T(iri("a"), iri("p"), blk("W")))
	if !IsCoreOf(single, g) {
		t.Fatal("isomorphic core rejected")
	}
	if IsCoreOf(g, g) {
		t.Fatal("non-lean graph accepted as its own core")
	}
}

func TestTheorem311EquivalenceIffCoreIso(t *testing.T) {
	// Simple graphs: G1 ≡ G2 iff core(G1) ≅ core(G2).
	g1 := graph.New(
		graph.T(iri("a"), iri("p"), blk("X")),
		graph.T(iri("a"), iri("p"), iri("b")),
	)
	g2 := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	if !entail.Equivalent(g1, g2) {
		t.Fatal("setup: g1 ≡ g2 expected")
	}
	c1, _ := Core(g1)
	c2, _ := Core(g2)
	if !hom.Isomorphic(c1, c2) {
		t.Fatal("equivalent graphs with non-isomorphic cores")
	}
	g3 := graph.New(graph.T(iri("a"), iri("q"), iri("b")))
	c3, _ := Core(g3)
	if hom.Isomorphic(c1, c3) {
		t.Fatal("inequivalent graphs with isomorphic cores")
	}
}

func TestExample317NormalForms(t *testing.T) {
	// G: a sc b, b sc c, a sc N, N sc c (N blank). H: a sc b, b sc c,
	// a sc c. G ≡ H; their closures differ, but nf(G) ≅ nf(H).
	a, b, c, n := iri("a"), iri("b"), iri("c"), blk("N")
	G := graph.New(
		graph.T(a, rdfs.SubClassOf, b),
		graph.T(b, rdfs.SubClassOf, c),
		graph.T(a, rdfs.SubClassOf, n),
		graph.T(n, rdfs.SubClassOf, c),
	)
	H := graph.New(
		graph.T(a, rdfs.SubClassOf, b),
		graph.T(b, rdfs.SubClassOf, c),
		graph.T(a, rdfs.SubClassOf, c),
	)
	if !entail.Equivalent(G, H) {
		t.Fatal("Example 3.17: G ≡ H expected")
	}
	clG, clH := closure.RDFSCl(G), closure.RDFSCl(H)
	if hom.Isomorphic(clG, clH) {
		t.Fatal("Example 3.17: closures should NOT be isomorphic")
	}
	if !hom.Isomorphic(NormalForm(G), NormalForm(H)) {
		t.Fatal("Theorem 3.19: nf(G) ≅ nf(H) expected")
	}
	if !SameNormalForm(G, H) {
		t.Fatal("SameNormalForm must agree")
	}
	// The paper notes nf(G) is H's closure-core; specifically nf contains
	// no blank: N is redundant.
	if len(NormalForm(G).BlankNodes()) != 0 {
		t.Fatal("normal form still mentions the redundant blank")
	}
}

func TestNormalFormSyntaxIndependenceNegative(t *testing.T) {
	g := graph.New(graph.T(iri("a"), rdfs.SubClassOf, iri("b")))
	h := graph.New(graph.T(iri("a"), rdfs.SubClassOf, iri("c")))
	if SameNormalForm(g, h) {
		t.Fatal("different graphs with same normal form")
	}
}

func TestMinimalRepresentationTransitiveChain(t *testing.T) {
	// a sc b sc c plus the redundant a sc c: minimal representation drops
	// the transitive edge.
	g := graph.New(
		graph.T(iri("a"), rdfs.SubClassOf, iri("b")),
		graph.T(iri("b"), rdfs.SubClassOf, iri("c")),
		graph.T(iri("a"), rdfs.SubClassOf, iri("c")),
	)
	m, err := MinimalRepresentation(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 {
		t.Fatalf("minimal representation size = %d, want 2:\n%v", m.Len(), m)
	}
	if m.Has(graph.T(iri("a"), rdfs.SubClassOf, iri("c"))) {
		t.Fatal("transitive edge kept")
	}
	if !entail.Equivalent(g, m) {
		t.Fatal("minimal representation not equivalent")
	}
}

func TestMinimalRepresentationPlainTriples(t *testing.T) {
	// (x,son,y) makes (x,child,y) redundant when son sp child.
	g := graph.New(
		graph.T(iri("son"), rdfs.SubPropertyOf, iri("child")),
		graph.T(iri("x"), iri("son"), iri("y")),
		graph.T(iri("x"), iri("child"), iri("y")),
	)
	m, err := MinimalRepresentation(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Has(graph.T(iri("x"), iri("child"), iri("y"))) {
		t.Fatal("redundant inherited triple kept")
	}
	if !entail.Equivalent(g, m) {
		t.Fatal("not equivalent")
	}
}

func TestMinimalRepresentationTypeTriples(t *testing.T) {
	g := graph.New(
		graph.T(iri("A"), rdfs.SubClassOf, iri("B")),
		graph.T(iri("x"), rdfs.Type, iri("A")),
		graph.T(iri("x"), rdfs.Type, iri("B")), // redundant via rule (5)
		graph.T(iri("p"), rdfs.Domain, iri("C")),
		graph.T(iri("u"), iri("p"), iri("v")),
		graph.T(iri("u"), rdfs.Type, iri("C")), // redundant via rule (6)
	)
	m, err := MinimalRepresentation(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Has(graph.T(iri("x"), rdfs.Type, iri("B"))) {
		t.Fatal("sc-liftable type kept")
	}
	if m.Has(graph.T(iri("u"), rdfs.Type, iri("C"))) {
		t.Fatal("dom-derivable type kept")
	}
	if !entail.Equivalent(g, m) {
		t.Fatal("not equivalent")
	}
}

func TestMinimalRepresentationReflexiveLoops(t *testing.T) {
	g := graph.New(
		graph.T(iri("p"), rdfs.SubPropertyOf, iri("p")), // derivable: p used below
		graph.T(iri("x"), iri("p"), iri("y")),
		graph.T(iri("solo"), rdfs.SubClassOf, iri("solo")), // NOT derivable
	)
	m, err := MinimalRepresentation(g)
	if err != nil {
		t.Fatal(err)
	}
	if m.Has(graph.T(iri("p"), rdfs.SubPropertyOf, iri("p"))) {
		t.Fatal("derivable reflexive sp loop kept")
	}
	if !m.Has(graph.T(iri("solo"), rdfs.SubClassOf, iri("solo"))) {
		t.Fatal("non-derivable reflexive sc loop dropped")
	}
	if !entail.Equivalent(g, m) {
		t.Fatal("not equivalent")
	}
}

func TestExample314OutsideRestrictedClassIsCyclic(t *testing.T) {
	// Example 3.14: b and c form an sp 2-cycle, both subproperties of a.
	// Deleting either (b,sp,a) or (c,sp,a) yields two non-isomorphic
	// minimal reductions, so MinimalRepresentation must refuse the
	// (cyclic) graph.
	g := graph.New(
		graph.T(iri("b"), rdfs.SubPropertyOf, iri("c")),
		graph.T(iri("c"), rdfs.SubPropertyOf, iri("b")),
		graph.T(iri("b"), rdfs.SubPropertyOf, iri("a")),
		graph.T(iri("c"), rdfs.SubPropertyOf, iri("a")),
	)
	if _, err := MinimalRepresentation(g); err == nil {
		t.Fatal("cyclic sp graph accepted")
	}
	// And indeed two non-isomorphic minimal representations exist:
	// dropping (b,sp,a) or dropping (c,sp,a) — verify both equivalent.
	m1 := g.Without(graph.T(iri("b"), rdfs.SubPropertyOf, iri("a")))
	m2 := g.Without(graph.T(iri("c"), rdfs.SubPropertyOf, iri("a")))
	if !entail.Equivalent(g, m1) || !entail.Equivalent(g, m2) {
		t.Fatal("Example 3.14 reductions not equivalent")
	}
	if hom.Isomorphic(m1, m2) {
		t.Fatal("Example 3.14: the two reductions must be non-isomorphic")
	}
}

func TestExample315OutsideRestrictedClass(t *testing.T) {
	// G = {(a,sc,b), (type,dom,a), (x,type,a), (x,type,b)} — reserved
	// vocabulary (type) in subject position.
	g := graph.New(
		graph.T(iri("a"), rdfs.SubClassOf, iri("b")),
		graph.T(rdfs.Type, rdfs.Domain, iri("a")),
		graph.T(iri("x"), rdfs.Type, iri("a")),
		graph.T(iri("x"), rdfs.Type, iri("b")),
	)
	if _, err := MinimalRepresentation(g); err == nil {
		t.Fatal("graph with reserved vocabulary in subject position accepted")
	}
	// The paper's two non-isomorphic minimal representations:
	g1 := g.Without(graph.T(iri("x"), rdfs.Type, iri("b")))
	g2 := g.Without(graph.T(iri("x"), rdfs.Type, iri("a")))
	if !entail.Equivalent(g, g1) {
		t.Fatal("G1 of Example 3.15 not equivalent to G")
	}
	if !entail.Equivalent(g, g2) {
		t.Fatal("G2 of Example 3.15 not equivalent to G")
	}
}

func TestMinimalRepresentationAgainstBruteForce(t *testing.T) {
	// On small random graphs in the restricted class, the minimal
	// representation must be a minimum-size equivalent subgraph, and
	// unique at that size.
	rng := rand.New(rand.NewSource(41))
	classes := []term.Term{iri("A"), iri("B"), iri("C")}
	props := []term.Term{iri("p"), iri("q")}
	inds := []term.Term{iri("x"), iri("y")}
	for round := 0; round < 25; round++ {
		g := graph.New()
		for k := 0; k < 6; k++ {
			switch rng.Intn(5) {
			case 0:
				g.Add(graph.T(classes[rng.Intn(3)], rdfs.SubClassOf, classes[rng.Intn(3)]))
			case 1:
				g.Add(graph.T(props[rng.Intn(2)], rdfs.SubPropertyOf, props[rng.Intn(2)]))
			case 2:
				g.Add(graph.T(props[rng.Intn(2)], rdfs.Domain, classes[rng.Intn(3)]))
			case 3:
				g.Add(graph.T(inds[rng.Intn(2)], rdfs.Type, classes[rng.Intn(3)]))
			default:
				g.Add(graph.T(inds[rng.Intn(2)], props[rng.Intn(2)], inds[rng.Intn(2)]))
			}
		}
		m, err := MinimalRepresentation(g)
		if err != nil {
			continue // cyclic rounds are out of scope
		}
		if !entail.Equivalent(g, m) {
			t.Fatalf("round %d: minimal representation not equivalent\nG:\n%v\nM:\n%v", round, g, m)
		}
		// Brute force: find the true minimum size of an equivalent
		// subgraph.
		ts := g.Triples()
		n := len(ts)
		best := n + 1
		for mask := 0; mask < 1<<n; mask++ {
			sub := graph.New()
			bits := 0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					sub.Add(ts[i])
					bits++
				}
			}
			if bits >= best {
				continue
			}
			if entail.Entails(sub, g) { // sub ⊆ g gives the converse
				best = bits
			}
		}
		if m.Len() != best {
			t.Fatalf("round %d: minimal representation has %d triples, brute force found %d\nG:\n%v\nM:\n%v",
				round, m.Len(), best, g, m)
		}
	}
}

func TestCheckRestrictedClass(t *testing.T) {
	ok := graph.New(
		graph.T(iri("a"), rdfs.SubClassOf, iri("b")),
		graph.T(iri("x"), rdfs.Type, iri("a")),
	)
	if err := CheckRestrictedClass(ok); err != nil {
		t.Fatalf("well-behaved graph rejected: %v", err)
	}
	cyc := graph.New(
		graph.T(iri("a"), rdfs.SubClassOf, iri("b")),
		graph.T(iri("b"), rdfs.SubClassOf, iri("a")),
	)
	if err := CheckRestrictedClass(cyc); err == nil {
		t.Fatal("sc cycle accepted")
	}
	vocab := graph.New(graph.T(iri("q"), rdfs.SubPropertyOf, rdfs.Domain))
	if err := CheckRestrictedClass(vocab); err == nil {
		t.Fatal("vocabulary in object position accepted")
	}
	// Reflexive loops do not count as cycles.
	refl := graph.New(graph.T(iri("a"), rdfs.SubClassOf, iri("a")))
	if err := CheckRestrictedClass(refl); err != nil {
		t.Fatalf("reflexive loop rejected: %v", err)
	}
}

func TestNormalFormOfSimpleGraphIsCore(t *testing.T) {
	g := example38G1()
	nf := NormalForm(g)
	c, _ := Core(g)
	// For simple graphs the closure only adds vocabulary triples; after
	// coring, the data part must match the core of G.
	if !entail.Equivalent(nf, g) {
		t.Fatal("nf(G) ≢ G")
	}
	dataPart := graph.New()
	nf.Each(func(tr graph.Triple) bool {
		if !rdfs.IsVocabulary(tr.P) {
			dataPart.Add(tr)
		}
		return true
	})
	if !hom.Isomorphic(dataPart, c) {
		t.Fatalf("data part of nf(G) is not core(G):\n%v\nvs\n%v", dataPart, c)
	}
}

func TestFingerprintDecidesEquivalence(t *testing.T) {
	// Example 3.17: equivalent graphs share a fingerprint even though
	// their closures and cores differ.
	a, b, c, n := iri("a"), iri("b"), iri("c"), blk("N")
	G := graph.New(
		graph.T(a, rdfs.SubClassOf, b), graph.T(b, rdfs.SubClassOf, c),
		graph.T(a, rdfs.SubClassOf, n), graph.T(n, rdfs.SubClassOf, c),
	)
	H := graph.New(
		graph.T(a, rdfs.SubClassOf, b), graph.T(b, rdfs.SubClassOf, c),
		graph.T(a, rdfs.SubClassOf, c),
	)
	if Fingerprint(G) != Fingerprint(H) {
		t.Fatal("equivalent graphs have different fingerprints")
	}
	K := graph.New(graph.T(a, rdfs.SubClassOf, b))
	if Fingerprint(G) == Fingerprint(K) {
		t.Fatal("inequivalent graphs share a fingerprint")
	}
	// Randomized: fingerprint equality must coincide with ≡.
	rng := rand.New(rand.NewSource(83))
	names := []term.Term{iri("a"), iri("b"), blk("x"), blk("y")}
	preds := []term.Term{iri("p"), rdfs.SubClassOf, rdfs.Type}
	mk := func() *graph.Graph {
		g := graph.New()
		for k := 0; k < 4; k++ {
			g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		return g
	}
	for round := 0; round < 25; round++ {
		g1, g2 := mk(), mk()
		same := Fingerprint(g1) == Fingerprint(g2)
		equiv := entail.Equivalent(g1, g2)
		if same != equiv {
			t.Fatalf("round %d: fingerprint equality (%v) vs ≡ (%v)\nG1:\n%v\nG2:\n%v",
				round, same, equiv, g1, g2)
		}
	}
}
