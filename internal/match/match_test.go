package match

import (
	"testing"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }
func v(s string) term.Term   { return term.NewVar(s) }

func data(ts ...graph.Triple) *graph.Graph { return graph.New(ts...) }

// allSolutions decodes every solution binding back to terms.
func allSolutions(patterns []graph.Triple, g *graph.Graph, opts Options) []map[term.Term]term.Term {
	var out []map[term.Term]term.Term
	Solve(patterns, g, opts, func(b Binding) bool {
		out = append(out, b.Terms(g.Dict()))
		return true
	})
	return out
}

func TestSingleMatch(t *testing.T) {
	g := data(graph.T(iri("a"), iri("p"), iri("b")))
	sols := allSolutions([]graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}}, g, Options{})
	if len(sols) != 1 {
		t.Fatalf("solutions = %d, want 1", len(sols))
	}
	if sols[0][v("X")] != iri("a") || sols[0][v("Y")] != iri("b") {
		t.Fatalf("binding = %v", sols[0])
	}
}

func TestJoinOnSharedVariable(t *testing.T) {
	g := data(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("b"), iri("p"), iri("c")),
		graph.T(iri("c"), iri("p"), iri("d")),
	)
	pats := []graph.Triple{
		{S: v("X"), P: iri("p"), O: v("Y")},
		{S: v("Y"), P: iri("p"), O: v("Z")},
	}
	sols := allSolutions(pats, g, Options{})
	if len(sols) != 2 { // a-b-c and b-c-d
		t.Fatalf("solutions = %d, want 2", len(sols))
	}
}

func TestRepeatedVariableInOnePattern(t *testing.T) {
	g := data(
		graph.T(iri("a"), iri("p"), iri("a")),
		graph.T(iri("a"), iri("p"), iri("b")),
	)
	sols := allSolutions([]graph.Triple{{S: v("X"), P: iri("p"), O: v("X")}}, g, Options{})
	if len(sols) != 1 || sols[0][v("X")] != iri("a") {
		t.Fatalf("solutions = %v", sols)
	}
}

func TestVariablePredicate(t *testing.T) {
	g := data(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("a"), iri("q"), iri("b")),
	)
	sols := allSolutions([]graph.Triple{{S: iri("a"), P: v("P"), O: iri("b")}}, g, Options{})
	if len(sols) != 2 {
		t.Fatalf("solutions = %d, want 2", len(sols))
	}
}

func TestNoSolution(t *testing.T) {
	g := data(graph.T(iri("a"), iri("p"), iri("b")))
	sols := allSolutions([]graph.Triple{{S: v("X"), P: iri("q"), O: v("Y")}}, g, Options{})
	if len(sols) != 0 {
		t.Fatalf("solutions = %d, want 0", len(sols))
	}
}

func TestEmptyPatternListYieldsEmptyBinding(t *testing.T) {
	g := data(graph.T(iri("a"), iri("p"), iri("b")))
	sols := allSolutions(nil, g, Options{})
	if len(sols) != 1 || len(sols[0]) != 0 {
		t.Fatalf("solutions = %v", sols)
	}
}

func TestInjectiveOption(t *testing.T) {
	g := data(
		graph.T(iri("a"), iri("p"), iri("a")),
		graph.T(iri("a"), iri("p"), iri("b")),
	)
	pats := []graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}}
	plain := allSolutions(pats, g, Options{})
	inj := allSolutions(pats, g, Options{Injective: true})
	if len(plain) != 2 {
		t.Fatalf("plain solutions = %d, want 2", len(plain))
	}
	if len(inj) != 1 { // X=a,Y=a violates injectivity
		t.Fatalf("injective solutions = %d, want 1", len(inj))
	}
}

func TestAdmissibleFilter(t *testing.T) {
	g := data(
		graph.T(iri("a"), iri("p"), blk("x")),
		graph.T(iri("a"), iri("p"), iri("b")),
	)
	d := g.Dict()
	opts := Options{
		Admissible: func(_, value dict.ID) bool { return d.KindOf(value) != term.KindBlank },
	}
	sols := allSolutions([]graph.Triple{{S: iri("a"), P: iri("p"), O: v("Y")}}, g, opts)
	if len(sols) != 1 || sols[0][v("Y")] != iri("b") {
		t.Fatalf("solutions = %v", sols)
	}
}

func TestBlankAsUnknown(t *testing.T) {
	// Homomorphism mode: blanks of the pattern are the unknowns.
	g := data(graph.T(iri("a"), iri("p"), iri("b")))
	opts := Options{IsUnknown: func(x term.Term) bool { return x.IsBlank() || x.IsVar() }}
	sols := allSolutions([]graph.Triple{{S: blk("n"), P: iri("p"), O: iri("b")}}, g, opts)
	if len(sols) != 1 || sols[0][blk("n")] != iri("a") {
		t.Fatalf("solutions = %v", sols)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	// A dense graph with an unsatisfiable last pattern forces exploration.
	g := graph.New()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			g.Add(graph.T(iri("n"+string(rune('a'+i))), iri("p"), iri("n"+string(rune('a'+j)))))
		}
	}
	pats := []graph.Triple{
		{S: v("X"), P: iri("p"), O: v("Y")},
		{S: v("Y"), P: iri("p"), O: v("Z")},
		{S: v("Z"), P: iri("q"), O: v("W")}, // no q-triples: unsatisfiable
	}
	// NoReorder prevents the selectivity heuristic from spotting the
	// empty candidate set of the last pattern upfront.
	s := NewSolver(NewIndex(g), Options{MaxSteps: 5, NoReorder: true})
	_, found, complete := s.First(pats)
	if found {
		t.Fatal("found a solution to an unsatisfiable problem")
	}
	if complete {
		t.Fatal("search must report incompleteness when budget exhausted")
	}
	// With an ample budget the search is complete.
	s2 := NewSolver(NewIndex(g), Options{MaxSteps: 1000000, NoReorder: true})
	_, found2, complete2 := s2.First(pats)
	if found2 || !complete2 {
		t.Fatalf("found2=%v complete2=%v", found2, complete2)
	}
	// The heuristic search detects unsatisfiability without any budget.
	s3 := NewSolver(NewIndex(g), Options{MaxSteps: 5})
	_, found3, complete3 := s3.First(pats)
	if found3 || !complete3 {
		t.Fatalf("found3=%v complete3=%v", found3, complete3)
	}
}

func TestIndexModesAgree(t *testing.T) {
	g := graph.New()
	for i := 0; i < 8; i++ {
		g.Add(graph.T(iri("s"+string(rune('0'+i%4))), iri("p"+string(rune('0'+i%2))), iri("o"+string(rune('0'+i%3)))))
	}
	pats := []graph.Triple{
		{S: v("X"), P: iri("p0"), O: v("Y")},
		{S: v("X"), P: v("P"), O: iri("o1")},
	}
	count := func(mode IndexMode) int {
		s := NewSolver(NewIndexMode(g, mode), Options{})
		n := 0
		s.Solve(pats, func(Binding) bool { n++; return true })
		return n
	}
	full, pred, scan := count(FullIndexes), count(PredicateOnly), count(ScanOnly)
	if full != pred || pred != scan {
		t.Fatalf("index modes disagree: full=%d predicate=%d scan=%d", full, pred, scan)
	}
}

func TestNoReorderStillCorrect(t *testing.T) {
	g := data(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("b"), iri("q"), iri("c")),
	)
	pats := []graph.Triple{
		{S: v("X"), P: iri("p"), O: v("Y")},
		{S: v("Y"), P: iri("q"), O: v("Z")},
	}
	a := allSolutions(pats, g, Options{})
	b := allSolutions(pats, g, Options{NoReorder: true})
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("reorder changes result: %d vs %d", len(a), len(b))
	}
}

func TestUnknowns(t *testing.T) {
	pats := []graph.Triple{
		{S: v("X"), P: iri("p"), O: v("Y")},
		{S: v("Y"), P: iri("p"), O: blk("n")},
	}
	vs := Unknowns(pats, nil)
	if len(vs) != 2 {
		t.Fatalf("default unknowns = %v, want vars only", vs)
	}
	all := Unknowns(pats, func(x term.Term) bool { return x.IsVar() || x.IsBlank() })
	if len(all) != 3 {
		t.Fatalf("unknowns = %v, want 3", all)
	}
}

func TestSolutionCountCartesian(t *testing.T) {
	// Two independent patterns over disjoint predicates: the solution
	// count is the product.
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.Add(graph.T(iri("a"+string(rune('0'+i))), iri("p"), iri("b")))
		g.Add(graph.T(iri("c"+string(rune('0'+i))), iri("q"), iri("d")))
	}
	pats := []graph.Triple{
		{S: v("X"), P: iri("p"), O: iri("b")},
		{S: v("Y"), P: iri("q"), O: iri("d")},
	}
	sols := allSolutions(pats, g, Options{})
	if len(sols) != 9 {
		t.Fatalf("solutions = %d, want 9", len(sols))
	}
}

func TestBindingClone(t *testing.T) {
	b := Binding{1: 2}
	c := b.Clone()
	c[1] = 3
	if b[1] != 2 {
		t.Fatal("clone aliases original")
	}
}

func TestBindingTerms(t *testing.T) {
	d := dict.New()
	x, a := d.Intern(v("X")), d.Intern(iri("a"))
	m := Binding{x: a}.Terms(d)
	if m[v("X")] != iri("a") {
		t.Fatalf("Terms = %v", m)
	}
}

func TestIndexAccessors(t *testing.T) {
	g := data(graph.T(iri("a"), iri("p"), blk("x")))
	ix := NewIndex(g)
	if ix.Graph() != g {
		t.Fatal("Graph accessor")
	}
	if ix.Hiding(map[dict.ID]bool{1: true}).Graph() != g {
		t.Fatal("a Hiding view does not share its parent's graph")
	}
}
