package graph

import (
	"strings"
	"testing"
	"testing/quick"

	"semwebdb/internal/term"
)

func iri(s string) term.Term   { return term.NewIRI(s) }
func blank(s string) term.Term { return term.NewBlank(s) }

func tr(s, p, o string) Triple {
	mk := func(x string) term.Term {
		if strings.HasPrefix(x, "_:") {
			return blank(x[2:])
		}
		return iri(x)
	}
	return T(mk(s), mk(p), mk(o))
}

func TestAddRemoveHas(t *testing.T) {
	g := New()
	t1 := tr("a", "p", "b")
	if !g.Add(t1) {
		t.Fatal("first Add must report insertion")
	}
	if g.Add(t1) {
		t.Fatal("duplicate Add must report false")
	}
	if !g.Has(t1) || g.Len() != 1 {
		t.Fatal("membership failed")
	}
	if !g.Remove(t1) || g.Remove(t1) {
		t.Fatal("Remove semantics")
	}
	if g.Len() != 0 {
		t.Fatal("graph not empty after remove")
	}
}

func TestAddRejectsIllFormed(t *testing.T) {
	g := New()
	// Blank predicate.
	if g.Add(T(iri("a"), blank("p"), iri("b"))) {
		t.Error("blank predicate accepted")
	}
	// Literal subject.
	if g.Add(T(term.NewLiteral("l"), iri("p"), iri("b"))) {
		t.Error("literal subject accepted")
	}
	// Variable anywhere.
	if g.Add(T(term.NewVar("x"), iri("p"), iri("b"))) {
		t.Error("variable subject accepted")
	}
	// Literal predicate.
	if g.Add(T(iri("a"), term.NewLiteral("p"), iri("b"))) {
		t.Error("literal predicate accepted")
	}
	if g.Len() != 0 {
		t.Fatal("ill-formed triples stored")
	}
	// Literal object is fine (extended model).
	if !g.Add(T(iri("a"), iri("p"), term.NewLiteral("l"))) {
		t.Error("literal object rejected")
	}
}

func TestMustAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd must panic on ill-formed triple")
		}
	}()
	New().MustAdd(T(iri("a"), blank("p"), iri("b")))
}

func TestTriplesSorted(t *testing.T) {
	g := New(tr("c", "p", "d"), tr("a", "p", "b"), tr("b", "p", "c"))
	ts := g.Triples()
	for i := 1; i < len(ts); i++ {
		if ts[i].Compare(ts[i-1]) <= 0 {
			t.Fatalf("not sorted: %v", ts)
		}
	}
}

func TestUniverseVocabularyBlanks(t *testing.T) {
	g := New(tr("a", "p", "_:x"), tr("_:x", "q", "b"))
	if len(g.Universe()) != 5 {
		t.Errorf("universe size = %d, want 5", len(g.Universe()))
	}
	if len(g.Vocabulary()) != 4 {
		t.Errorf("vocabulary size = %d, want 4 (a p q b)", len(g.Vocabulary()))
	}
	if len(g.BlankNodes()) != 1 {
		t.Errorf("blank nodes = %d, want 1", len(g.BlankNodes()))
	}
	if g.IsGround() {
		t.Error("graph with blanks reported ground")
	}
	if !New(tr("a", "p", "b")).IsGround() {
		t.Error("ground graph not reported ground")
	}
}

func TestSetOperations(t *testing.T) {
	g1 := New(tr("a", "p", "b"), tr("b", "p", "c"))
	g2 := New(tr("b", "p", "c"), tr("c", "p", "d"))
	u := Union(g1, g2)
	if u.Len() != 3 {
		t.Fatalf("union size = %d, want 3", u.Len())
	}
	if !g1.SubgraphOf(u) || !g2.SubgraphOf(u) {
		t.Fatal("operands not subgraphs of union")
	}
	if !g1.ProperSubgraphOf(u) {
		t.Fatal("proper subgraph check failed")
	}
	if g1.ProperSubgraphOf(g1) {
		t.Fatal("graph proper subgraph of itself")
	}
	m := g1.Minus(g2)
	if m.Len() != 1 || !m.Has(tr("a", "p", "b")) {
		t.Fatalf("minus = %v", m)
	}
	w := g1.Without(tr("a", "p", "b"))
	if w.Len() != 1 || g1.Len() != 2 {
		t.Fatal("Without must not mutate the receiver")
	}
}

func TestUnionIdentifiesBlanks(t *testing.T) {
	g1 := New(tr("a", "p", "_:x"))
	g2 := New(tr("_:x", "q", "b"))
	u := Union(g1, g2)
	if len(u.BlankNodes()) != 1 {
		t.Fatalf("union must identify equal blank labels, got %d blanks", len(u.BlankNodes()))
	}
}

func TestMergeKeepsBlanksApart(t *testing.T) {
	g1 := New(tr("a", "p", "_:x"))
	g2 := New(tr("_:x", "q", "b"))
	m := Merge(g1, g2)
	if m.Len() != 2 {
		t.Fatalf("merge size = %d, want 2", m.Len())
	}
	if len(m.BlankNodes()) != 2 {
		t.Fatalf("merge must rename colliding blanks apart, got %d blanks", len(m.BlankNodes()))
	}
	// Non-colliding blanks stay.
	g3 := New(tr("_:y", "q", "b"))
	m2 := Merge(g1, g3)
	if _, ok := m2.BlankNodes()[blank("y")]; !ok {
		t.Fatal("non-colliding blank renamed unnecessarily")
	}
}

func TestMapApply(t *testing.T) {
	g := New(tr("a", "p", "_:x"), tr("_:x", "p", "_:y"))
	mu := Map{blank("x"): iri("a")}
	h := mu.Apply(g)
	if !h.Has(tr("a", "p", "a")) || !h.Has(tr("a", "p", "_:y")) {
		t.Fatalf("apply wrong: %v", h)
	}
	// URIs are preserved by maps regardless of entries.
	if mu.Of(iri("z")) != iri("z") {
		t.Fatal("map must preserve URIs")
	}
}

func TestMapCollapse(t *testing.T) {
	g := New(tr("a", "p", "_:x"), tr("a", "p", "_:y"))
	mu := Map{blank("x"): blank("y")}
	h := mu.Apply(g)
	if h.Len() != 1 {
		t.Fatalf("collapsed graph size = %d, want 1", h.Len())
	}
}

func TestMapCompose(t *testing.T) {
	m1 := Map{blank("x"): blank("y")}
	m2 := Map{blank("y"): iri("a")}
	c := m1.Compose(m2)
	if c.Of(blank("x")) != iri("a") {
		t.Fatalf("compose: x ↦ %v, want a", c.Of(blank("x")))
	}
	if c.Of(blank("y")) != iri("a") {
		t.Fatalf("compose: y ↦ %v, want a", c.Of(blank("y")))
	}
}

func TestMapValidate(t *testing.T) {
	if err := (Map{blank("x"): iri("a")}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Map{iri("a"): iri("b")}).Validate(); err == nil {
		t.Fatal("IRI key accepted")
	}
	if err := (Map{blank("x"): term.NewVar("v")}).Validate(); err == nil {
		t.Fatal("variable value accepted")
	}
}

func TestSkolemizeRoundTrip(t *testing.T) {
	g := New(tr("a", "p", "_:x"), tr("_:x", "q", "_:y"), tr("a", "p", "b"))
	sk := Skolemize(g)
	if !sk.IsGround() {
		t.Fatal("skolemization must produce a ground graph")
	}
	back := Unskolemize(sk)
	if !back.Equal(g) {
		t.Fatalf("unskolemize(skolemize(G)) != G:\n%v\nvs\n%v", back, g)
	}
}

func TestSkolemizePreservesSize(t *testing.T) {
	f := func(n uint8) bool {
		g := New()
		for i := 0; i < int(n%20); i++ {
			g.Add(T(blank("b"+string(rune('a'+i%5))), iri("p"), iri("o"+string(rune('a'+i%7)))))
		}
		return Skolemize(g).Len() == g.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnskolemizeDropsBlankPredicates(t *testing.T) {
	// A triple whose predicate is a skolem constant becomes ill-formed on
	// unskolemization and must be dropped (Section 3.1).
	h := New(T(iri("a"), iri(SkolemPrefix+"x"), iri("b")), tr("a", "p", "b"))
	back := Unskolemize(h)
	if back.Len() != 1 || !back.Has(tr("a", "p", "b")) {
		t.Fatalf("unskolemize = %v", back)
	}
}

func TestIsInstanceOf(t *testing.T) {
	g := New(tr("a", "p", "_:x"))
	mu := Map{blank("x"): iri("b")}
	if !IsInstanceOf(New(tr("a", "p", "b")), g, mu) {
		t.Fatal("instance check failed")
	}
	if IsInstanceOf(New(tr("a", "p", "c")), g, mu) {
		t.Fatal("wrong instance accepted")
	}
}

func TestRenameBlanksApart(t *testing.T) {
	g := New(tr("_:x", "p", "_:y"))
	r := RenameBlanksApart(g, "!1")
	if r.Len() != 1 {
		t.Fatal("rename changed size")
	}
	for b := range r.BlankNodes() {
		if !strings.HasSuffix(b.Value, "!1") {
			t.Fatalf("blank %v not renamed", b)
		}
	}
}

func TestGroundPartAndNonGround(t *testing.T) {
	g := New(tr("a", "p", "b"), tr("a", "p", "_:x"))
	if g.GroundPart().Len() != 1 {
		t.Fatal("ground part wrong")
	}
	comps := g.BlankComponents()
	if len(comps) != 1 || len(comps[0]) != 1 || g.decode(comps[0][0]) != tr("a", "p", "_:x") {
		t.Fatalf("blank components = %v, want the one non-ground triple", comps)
	}
	// _:x and _:z meet through _:y; _:w is a component of its own.
	g = New(tr("a", "p", "b"), tr("_:x", "p", "_:y"), tr("_:z", "q", "_:y"),
		tr("_:y", "r", "c"), tr("_:w", "p", "_:w"), tr("_:w", "q", "a"))
	comps = g.BlankComponents()
	if len(comps) != 2 || len(comps[0])+len(comps[1]) != 5 {
		t.Fatalf("blank components = %v, want two covering the 5 non-ground triples", comps)
	}
	for _, comp := range comps {
		blanks := NewWithDict(g.Dict())
		for _, enc := range comp {
			blanks.AddID(enc)
		}
		if n := len(blanks.BlankIDs()); n != 3 && n != 1 {
			t.Fatalf("component %v has %d blanks, want 3 or 1", blanks, n)
		}
	}
}

func TestStringCanonical(t *testing.T) {
	g := New(tr("b", "p", "c"), tr("a", "p", "b"))
	s := g.String()
	if !strings.HasPrefix(s, "<a>") {
		t.Fatalf("canonical string should start with <a>: %q", s)
	}
	if !strings.Contains(s, " .\n") {
		t.Fatalf("missing statement terminators: %q", s)
	}
}

func TestWithPredicate(t *testing.T) {
	g := New(tr("a", "p", "b"), tr("c", "p", "d"), tr("a", "q", "b"))
	ps := g.WithPredicate(iri("p"))
	if len(ps) != 2 {
		t.Fatalf("WithPredicate: %d, want 2", len(ps))
	}
	if len(g.Predicates()) != 2 {
		t.Fatalf("Predicates: %d, want 2", len(g.Predicates()))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(tr("a", "p", "b"))
	h := g.Clone()
	h.Add(tr("c", "p", "d"))
	if g.Len() != 1 || h.Len() != 2 {
		t.Fatal("clone not independent")
	}
}

func TestEachEarlyStop(t *testing.T) {
	g := New(tr("a", "p", "b"), tr("c", "p", "d"), tr("e", "p", "f"))
	n := 0
	g.Each(func(Triple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop failed: visited %d", n)
	}
}

func TestMergeIsUnionForGroundGraphs(t *testing.T) {
	f := func(seed uint8) bool {
		g1 := New(tr("a", "p", "b"))
		g2 := New(tr("c", "q", "d"))
		if seed%2 == 0 {
			g2.Add(tr("a", "p", "b"))
		}
		return Merge(g1, g2).Equal(Union(g1, g2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
