package closure

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }

// scChain returns a1 sc a2 sc … sc an.
func scChain(n int) *graph.Graph {
	g := graph.New()
	for i := 1; i < n; i++ {
		g.Add(graph.T(iri(fmt.Sprintf("c%03d", i)), rdfs.SubClassOf, iri(fmt.Sprintf("c%03d", i+1))))
	}
	return g
}

func TestRDFSClContainsInput(t *testing.T) {
	g := graph.New(
		graph.T(iri("a"), rdfs.SubClassOf, iri("b")),
		graph.T(iri("x"), iri("p"), iri("y")),
	)
	cl := RDFSCl(g)
	g.Each(func(tr graph.Triple) bool {
		if !cl.Has(tr) {
			t.Errorf("closure misses input triple %v", tr)
		}
		return true
	})
}

func TestRDFSClTransitivity(t *testing.T) {
	cl := RDFSCl(scChain(5))
	for i := 1; i <= 5; i++ {
		for j := i; j <= 5; j++ {
			want := graph.T(iri(fmt.Sprintf("c%03d", i)), rdfs.SubClassOf, iri(fmt.Sprintf("c%03d", j)))
			if i < j && !cl.Has(want) {
				t.Errorf("missing transitive edge %v", want)
			}
		}
	}
	// Reflexive loops on every chain node (rule 13).
	for i := 1; i <= 5; i++ {
		loop := graph.T(iri(fmt.Sprintf("c%03d", i)), rdfs.SubClassOf, iri(fmt.Sprintf("c%03d", i)))
		if !cl.Has(loop) {
			t.Errorf("missing reflexive loop %v", loop)
		}
	}
}

func TestRDFSClVocabularyReflexivity(t *testing.T) {
	cl := RDFSCl(graph.New())
	for _, p := range rdfs.Vocabulary() {
		if !cl.Has(graph.T(p, rdfs.SubPropertyOf, p)) {
			t.Errorf("rule (9) triple missing for %v", p)
		}
	}
}

func TestRDFSClInheritance(t *testing.T) {
	g := graph.New(
		graph.T(iri("son"), rdfs.SubPropertyOf, iri("child")),
		graph.T(iri("child"), rdfs.SubPropertyOf, iri("descendant")),
		graph.T(iri("tom"), iri("son"), iri("mary")),
	)
	cl := RDFSCl(g)
	for _, p := range []string{"child", "descendant"} {
		if !cl.Has(graph.T(iri("tom"), iri(p), iri("mary"))) {
			t.Errorf("missing inherited triple with %s", p)
		}
	}
	// Rule (8): every predicate in use is sp-reflexive.
	if !cl.Has(graph.T(iri("son"), rdfs.SubPropertyOf, iri("son"))) {
		t.Error("rule (8) reflexivity missing")
	}
}

func TestRDFSClDomainRange(t *testing.T) {
	g := graph.New(
		graph.T(iri("paints"), rdfs.SubPropertyOf, iri("creates")),
		graph.T(iri("creates"), rdfs.Domain, iri("Artist")),
		graph.T(iri("creates"), rdfs.Range, iri("Artifact")),
		graph.T(iri("Picasso"), iri("paints"), iri("Guernica")),
	)
	cl := RDFSCl(g)
	if !cl.Has(graph.T(iri("Picasso"), rdfs.Type, iri("Artist"))) {
		t.Error("domain typing missing (via subproperty)")
	}
	if !cl.Has(graph.T(iri("Guernica"), rdfs.Type, iri("Artifact"))) {
		t.Error("range typing missing (via subproperty)")
	}
}

func TestRDFSClDomainDirect(t *testing.T) {
	// Rule 6 with the reflexive (p,sp,p): no explicit subproperty.
	g := graph.New(
		graph.T(iri("p"), rdfs.Domain, iri("C")),
		graph.T(iri("x"), iri("p"), iri("y")),
	)
	cl := RDFSCl(g)
	if !cl.Has(graph.T(iri("x"), rdfs.Type, iri("C"))) {
		t.Error("direct domain typing missing")
	}
}

func TestRDFSClTypeLifting(t *testing.T) {
	g := graph.New(
		graph.T(iri("A"), rdfs.SubClassOf, iri("B")),
		graph.T(iri("B"), rdfs.SubClassOf, iri("C")),
		graph.T(iri("x"), rdfs.Type, iri("A")),
	)
	cl := RDFSCl(g)
	for _, c := range []string{"B", "C"} {
		if !cl.Has(graph.T(iri("x"), rdfs.Type, iri(c))) {
			t.Errorf("type not lifted to %s", c)
		}
	}
}

func TestRDFSClBlankSuperproperty(t *testing.T) {
	// (p, sp, _:B): the blank cannot become a predicate (no ill-formed
	// triples), but transitivity through the blank must still work.
	g := graph.New(
		graph.T(iri("p"), rdfs.SubPropertyOf, blk("B")),
		graph.T(blk("B"), rdfs.SubPropertyOf, iri("q")),
		graph.T(iri("x"), iri("p"), iri("y")),
	)
	cl := RDFSCl(g)
	if !cl.Has(graph.T(iri("p"), rdfs.SubPropertyOf, iri("q"))) {
		t.Error("transitivity through blank missing")
	}
	if !cl.Has(graph.T(iri("x"), iri("q"), iri("y"))) {
		t.Error("inheritance through blank chain missing")
	}
	cl.Each(func(tr graph.Triple) bool {
		if !tr.WellFormed() {
			t.Errorf("ill-formed triple in closure: %v", tr)
		}
		return true
	})
}

func TestMarinIncompletenessFix(t *testing.T) {
	// Note 2.4: blanks standing for properties in (a,sp,X), (X,dom,b).
	// Rules (6)/(7) (added following Marin) must fire through the blank.
	g := graph.New(
		graph.T(iri("a"), rdfs.SubPropertyOf, blk("X")),
		graph.T(blk("X"), rdfs.Domain, iri("C")),
		graph.T(iri("u"), iri("a"), iri("v")),
	)
	cl := RDFSCl(g)
	if !cl.Has(graph.T(iri("u"), rdfs.Type, iri("C"))) {
		t.Error("rule (6) through blank property missing — Marin fix broken")
	}
	g2 := graph.New(
		graph.T(iri("a"), rdfs.SubPropertyOf, blk("X")),
		graph.T(blk("X"), rdfs.Range, iri("C")),
		graph.T(iri("u"), iri("a"), iri("v")),
	)
	if !RDFSCl(g2).Has(graph.T(iri("v"), rdfs.Type, iri("C"))) {
		t.Error("rule (7) through blank property missing")
	}
}

func TestSemiNaiveEqualsNaive(t *testing.T) {
	graphs := []*graph.Graph{
		graph.New(),
		scChain(6),
		graph.New(
			graph.T(iri("p"), rdfs.SubPropertyOf, iri("q")),
			graph.T(iri("q"), rdfs.Domain, iri("C")),
			graph.T(iri("C"), rdfs.SubClassOf, iri("D")),
			graph.T(iri("x"), iri("p"), iri("y")),
			graph.T(iri("y"), rdfs.Type, iri("C")),
		),
		graph.New(
			graph.T(iri("a"), rdfs.SubPropertyOf, blk("X")),
			graph.T(blk("X"), rdfs.Domain, iri("C")),
			graph.T(iri("u"), iri("a"), iri("v")),
		),
	}
	for i, g := range graphs {
		fast := RDFSCl(g)
		slow := NaiveRDFSCl(g)
		if !fast.Equal(slow) {
			t.Errorf("case %d: semi-naive and naive closures differ:\nfast %d triples\nslow %d triples\nonly-fast: %v\nonly-slow: %v",
				i, fast.Len(), slow.Len(), fast.Minus(slow), slow.Minus(fast))
		}
	}
}

func TestSemiNaiveEqualsNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	preds := []term.Term{rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Type, rdfs.Domain, rdfs.Range,
		iri("p"), iri("q"), iri("r")}
	names := []term.Term{iri("a"), iri("b"), iri("c"), iri("d"), blk("x"), blk("y")}
	for round := 0; round < 60; round++ {
		g := graph.New()
		for k := 0; k < 8; k++ {
			g.Add(graph.T(
				names[rng.Intn(len(names))],
				preds[rng.Intn(len(preds))],
				names[rng.Intn(len(names))],
			))
		}
		fast := RDFSCl(g)
		slow := NaiveRDFSCl(g)
		if !fast.Equal(slow) {
			t.Fatalf("round %d: closures differ on\n%v\nonly-fast: %v\nonly-slow: %v",
				round, g, fast.Minus(slow), slow.Minus(fast))
		}
	}
}

func TestClEqualsRDFSCl(t *testing.T) {
	// Lemma 3.4 / Theorem 3.6(2): the skolemization route and the direct
	// route coincide.
	rng := rand.New(rand.NewSource(11))
	preds := []term.Term{rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Type, rdfs.Domain, rdfs.Range, iri("p")}
	names := []term.Term{iri("a"), iri("b"), blk("x"), blk("y"), blk("z")}
	for round := 0; round < 60; round++ {
		g := graph.New()
		for k := 0; k < 7; k++ {
			g.Add(graph.T(
				names[rng.Intn(len(names))],
				preds[rng.Intn(len(preds))],
				names[rng.Intn(len(names))],
			))
		}
		if !Cl(g).Equal(RDFSCl(g)) {
			t.Fatalf("round %d: cl(G) ≠ RDFS-cl(G) on\n%v", round, g)
		}
	}
}

func TestClosureIdempotent(t *testing.T) {
	g := graph.New(
		graph.T(iri("a"), rdfs.SubClassOf, iri("b")),
		graph.T(iri("b"), rdfs.SubClassOf, iri("c")),
		graph.T(iri("x"), rdfs.Type, iri("a")),
		graph.T(iri("p"), rdfs.Domain, iri("a")),
		graph.T(iri("u"), iri("p"), iri("w")),
	)
	c1 := RDFSCl(g)
	c2 := RDFSCl(c1)
	if !c1.Equal(c2) {
		t.Fatalf("closure not idempotent: %v vs %v extra", c1.Len(), c2.Len())
	}
}

func TestClosureQuadraticGrowth(t *testing.T) {
	// Theorem 3.6(3): |cl(G)| = Θ(|G|²); an sc-chain exhibits the
	// quadratic lower bound: n(n+1)/2 sc pairs + n loops + constants.
	prev := 0.0
	for _, n := range []int{8, 16, 32} {
		g := scChain(n + 1) // n edges
		cl := RDFSCl(g)
		ratio := float64(cl.Len()) / float64(n*n)
		if ratio < 0.3 || ratio > 3.0 {
			t.Errorf("n=%d: |cl| = %d, ratio %0.2f not Θ(n²)-ish", n, cl.Len(), ratio)
		}
		prev = ratio
	}
	_ = prev
}

func TestMembershipFastPathAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Restricted class: vocabulary only in predicate position.
	preds := []term.Term{rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Type, rdfs.Domain, rdfs.Range,
		iri("p"), iri("q")}
	names := []term.Term{iri("a"), iri("b"), iri("c"), blk("x"), blk("y")}
	for round := 0; round < 40; round++ {
		g := graph.New()
		for k := 0; k < 8; k++ {
			g.Add(graph.T(
				names[rng.Intn(len(names))],
				preds[rng.Intn(len(preds))],
				names[rng.Intn(len(names))],
			))
		}
		mem := NewMembership(g)
		if !mem.Fast() {
			t.Fatalf("round %d: expected fast path for %v", round, g)
		}
		full := RDFSCl(g)
		// Check every triple over the universe plus vocabulary.
		terms := append(g.UniverseList(), rdfs.Vocabulary()...)
		for _, s := range terms {
			if !s.CanSubject() {
				continue
			}
			for _, p := range preds {
				for _, o := range terms {
					tr := graph.T(s, p, o)
					got := mem.Contains(tr)
					want := full.Has(tr)
					if got != want {
						t.Fatalf("round %d: membership(%v) = %v, closure says %v\nG:\n%v", round, tr, got, want, g)
					}
				}
			}
		}
	}
}

func TestMembershipFallback(t *testing.T) {
	// Vocabulary in object position: fast path must be refused and the
	// fallback must agree with the materialized closure.
	g := graph.New(
		graph.T(iri("q"), rdfs.SubPropertyOf, rdfs.Type), // type in object position
		graph.T(iri("x"), iri("q"), iri("C")),
	)
	mem := NewMembership(g)
	if mem.Fast() {
		t.Fatal("fast path on a graph outside the restricted class")
	}
	// Rule (3) turns (x,q,C) into (x,type,C); then rule (12) fires.
	if !mem.Contains(graph.T(iri("x"), rdfs.Type, iri("C"))) {
		t.Error("derived type triple missing")
	}
	if !mem.Contains(graph.T(iri("C"), rdfs.SubClassOf, iri("C"))) {
		t.Error("derived sc loop missing")
	}
}

func TestMembershipRejectsIllFormed(t *testing.T) {
	g := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	mem := NewMembership(g)
	if mem.Contains(graph.Triple{S: term.NewLiteral("l"), P: iri("p"), O: iri("b")}) {
		t.Fatal("ill-formed triple reported in closure")
	}
}

func TestMembershipOnChains(t *testing.T) {
	g := scChain(30)
	mem := NewMembership(g)
	full := RDFSCl(g)
	if !mem.Fast() {
		t.Fatal("chain should use the fast path")
	}
	for i := 1; i <= 30; i++ {
		for j := 1; j <= 30; j++ {
			tr := graph.T(iri(fmt.Sprintf("c%03d", i)), rdfs.SubClassOf, iri(fmt.Sprintf("c%03d", j)))
			if mem.Contains(tr) != full.Has(tr) {
				t.Fatalf("disagreement at (%d,%d)", i, j)
			}
		}
	}
}

func TestClosurePreservesBlanks(t *testing.T) {
	g := graph.New(
		graph.T(blk("x"), rdfs.Type, iri("A")),
		graph.T(iri("A"), rdfs.SubClassOf, iri("B")),
	)
	cl := RDFSCl(g)
	if !cl.Has(graph.T(blk("x"), rdfs.Type, iri("B"))) {
		t.Fatal("lifting lost the blank subject")
	}
}

// TestClosureOrderIndependent asserts the engine's queue order is an
// implementation detail: LIFO (the default), FIFO and a seeded shuffle
// all reach the same fixpoint.
func TestClosureOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for round := 0; round < 40; round++ {
		g := randVocabAsDataGraph(rng, 3+rng.Intn(9))
		want, err := rdfsClSequential(context.Background(), g, lifoOrder, nil)
		if err != nil {
			t.Fatal(err)
		}
		fifo, err := rdfsClSequential(context.Background(), g, fifoOrder, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !fifo.Equal(want) {
			t.Fatalf("round %d: FIFO drain produced a different closure", round)
		}
		for seed := int64(0); seed < 3; seed++ {
			shuf, err := rdfsClSequential(context.Background(), g, shuffledOrder, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !shuf.Equal(want) {
				t.Fatalf("round %d seed %d: shuffled drain produced a different closure", round, seed)
			}
		}
	}
}

// TestClGroundSkipsSkolemization pins ClCtx's ground fast path: on a
// graph without blank nodes it returns RDFS-cl(G) as saturated, with no
// Skolemize/Unskolemize round trip. The probe is an IRI that happens to
// carry the skolem prefix: the round trip would turn it into a blank
// node (interning that blank), the direct path leaves it alone and
// interns nothing beyond what saturation itself does.
func TestClGroundSkipsSkolemization(t *testing.T) {
	skolemLike := iri(graph.SkolemPrefix + "x")
	g := graph.New(
		graph.T(skolemLike, rdfs.Type, iri("A")),
		graph.T(iri("A"), rdfs.SubClassOf, iri("B")),
		graph.T(iri("p"), rdfs.Domain, iri("A")),
		graph.T(iri("s"), iri("p"), skolemLike),
	)
	want := RDFSCl(g)
	terms := g.Dict().Len()
	got, err := ClCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ground ClCtx differs from RDFSCl\nonly-want: %v\nonly-got: %v",
			want.Minus(got), got.Minus(want))
	}
	if n := g.Dict().Len(); n != terms {
		t.Fatalf("ground ClCtx interned %d terms (skolem round trip taken)", n-terms)
	}
	if _, ok := g.Dict().Lookup(blk("x")); ok {
		t.Fatal("ground ClCtx unskolemized a skolem-prefixed IRI into a blank node")
	}
}
