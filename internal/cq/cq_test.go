package cq

import (
	"math/rand"
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }

func TestBlankCycleFree(t *testing.T) {
	chain := graph.New(
		graph.T(blk("a"), iri("p"), blk("b")),
		graph.T(blk("b"), iri("p"), blk("c")),
	)
	if !BlankCycleFree(chain) {
		t.Error("chain misclassified as cyclic")
	}
	triangle := graph.New(
		graph.T(blk("a"), iri("p"), blk("b")),
		graph.T(blk("b"), iri("p"), blk("c")),
		graph.T(blk("c"), iri("p"), blk("a")),
	)
	if BlankCycleFree(triangle) {
		t.Error("triangle not detected")
	}
	// Parallel edges between two blanks are NOT a cycle (the CQ is
	// acyclic: one atom's variables contain the other's).
	parallel := graph.New(
		graph.T(blk("a"), iri("p"), blk("b")),
		graph.T(blk("a"), iri("q"), blk("b")),
		graph.T(blk("b"), iri("r"), blk("a")),
	)
	if !BlankCycleFree(parallel) {
		t.Error("parallel edges misclassified as a cycle")
	}
	// Ground cycles don't matter.
	groundCycle := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("b"), iri("p"), iri("a")),
	)
	if !BlankCycleFree(groundCycle) {
		t.Error("ground cycle misclassified")
	}
	// Blank-URI-blank paths are fine (the URI breaks the blank chain).
	viaURI := graph.New(
		graph.T(blk("a"), iri("p"), iri("mid")),
		graph.T(iri("mid"), iri("p"), blk("b")),
		graph.T(blk("b"), iri("p"), blk("a")),
	)
	if !BlankCycleFree(viaURI) {
		t.Error("URI-broken cycle misclassified")
	}
}

func TestGYOAcyclicity(t *testing.T) {
	p, q := iri("p"), iri("q")
	cases := []struct {
		name string
		body []graph.Triple
		want bool
	}{
		{"path", []graph.Triple{graph.T(blk("x"), p, blk("y")), graph.T(blk("y"), p, blk("z"))}, true},
		{"triangle", []graph.Triple{
			graph.T(blk("x"), p, blk("y")), graph.T(blk("y"), p, blk("z")), graph.T(blk("z"), p, blk("x")),
		}, false},
		// Parallel patterns: one hyperedge contains the other (an ear).
		{"parallel edges", []graph.Triple{
			graph.T(blk("x"), p, blk("y")), graph.T(blk("x"), q, blk("y")), graph.T(blk("y"), p, blk("x")),
		}, true},
		// A repeated blank is a one-element hyperedge.
		{"self loop on a path", []graph.Triple{graph.T(blk("x"), p, blk("x")), graph.T(blk("x"), p, blk("y"))}, true},
		{"empty body", nil, true},
	}
	for _, c := range cases {
		jt, ok := GYO(c.body)
		if ok != c.want || IsAcyclic(c.body) != c.want {
			t.Errorf("%s: acyclic = %v, want %v", c.name, ok, c.want)
			continue
		}
		if ok && len(jt.Order) != len(c.body) {
			t.Errorf("%s: join tree orders %d of %d patterns", c.name, len(jt.Order), len(c.body))
		}
	}
}

// randomBody draws a blank-cycle-free body over constants of the data,
// a constant absent from it, and blanks that may repeat inside one
// triple or form disconnected components.
func randomBody(rng *rand.Rand) *graph.Graph {
	names := []term.Term{iri("a"), iri("b"), iri("absent"), blk("x"), blk("y"), blk("z"), blk("w"), blk("x")}
	preds := []term.Term{iri("p"), iri("q"), iri("p"), iri("q"), iri("p"), iri("q"), iri("nopred")}
	for {
		g := graph.New()
		for k := 0; k < 1+rng.Intn(5); k++ {
			g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		if BlankCycleFree(g) {
			return g
		}
	}
}

func randomData(rng *rand.Rand) *graph.Graph {
	names := []term.Term{iri("a"), iri("b"), iri("c"), blk("d1"), blk("d2")}
	preds := []term.Term{iri("p"), iri("q")}
	g := graph.New()
	for k := 0; k < 3+rng.Intn(8); k++ {
		g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
	}
	return g
}

// Section 2.4: for a blank-cycle-free body, Yannakakis over the index
// decides exactly what the engine's backtracking map search decides.
func TestYannakakisAgreesWithBacktracking(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	yes := 0
	for round := 0; round < 1200; round++ {
		data, body := randomData(rng), randomBody(rng)
		ix := match.NewIndex(data)
		before := ix.Dict().Len()
		got, err := Yannakakis(ix, body)
		if err != nil {
			t.Fatalf("round %d: blank-cycle-free body rejected: %v\n%v", round, err, body)
		}
		if after := ix.Dict().Len(); after != before {
			t.Fatalf("round %d: Yannakakis grew the dictionary %d -> %d", round, before, after)
		}
		// ExistsMap interns the body into the data dictionary, so it runs
		// after the length check.
		if want := hom.ExistsMap(body, data); got != want {
			t.Fatalf("round %d: Yannakakis (%v) disagrees with the map search (%v)\nbody:\n%v\ndata:\n%v",
				round, got, want, body, data)
		}
		if got {
			yes++
		}
	}
	if yes < 100 || yes > 1100 {
		t.Fatalf("unbalanced workload: %d of 1200 bodies map into their data", yes)
	}
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	tri := graph.New(
		graph.T(blk("x"), iri("p"), blk("y")),
		graph.T(blk("y"), iri("p"), blk("z")),
		graph.T(blk("z"), iri("p"), blk("x")),
	)
	if _, err := Yannakakis(match.NewIndex(graph.New()), tri); err == nil {
		t.Fatal("cyclic body accepted")
	}
}

func TestYannakakisWithConstantsAndRepeats(t *testing.T) {
	body := graph.New(
		graph.T(iri("a"), iri("r"), blk("x")),
		graph.T(blk("x"), iri("s"), blk("x")),
	)
	data := graph.New(
		graph.T(iri("a"), iri("r"), iri("1")),
		graph.T(iri("b"), iri("r"), iri("2")),
		graph.T(iri("1"), iri("s"), iri("1")),
		graph.T(iri("2"), iri("s"), iri("3")),
	)
	if got, err := Yannakakis(match.NewIndex(data), body); err != nil || !got {
		t.Fatalf("got=%v err=%v, want true", got, err)
	}
	// Without the matching s-loop: false.
	data2 := graph.New(
		graph.T(iri("a"), iri("r"), iri("1")),
		graph.T(iri("2"), iri("s"), iri("2")),
	)
	if got, err := Yannakakis(match.NewIndex(data2), body); err != nil || got {
		t.Fatalf("got=%v err=%v, want false", got, err)
	}
}

func TestThreeSATEncoding(t *testing.T) {
	cases := []struct {
		f    ThreeSATInstance
		want bool
	}{
		// (x1 ∨ x2 ∨ x3): satisfiable.
		{ThreeSATInstance{3, [][3]int{{1, 2, 3}}}, true},
		// (x1)(¬x1): unsatisfiable via padded clauses.
		{ThreeSATInstance{1, [][3]int{{1, 1, 1}, {-1, -1, -1}}}, false},
		// (x1∨x2∨x3)(¬x1∨¬x2∨¬x3): satisfiable.
		{ThreeSATInstance{3, [][3]int{{1, 2, 3}, {-1, -2, -3}}}, true},
		// Pigeonhole-ish contradiction.
		{ThreeSATInstance{2, [][3]int{
			{1, 1, 2}, {1, 1, -2}, {-1, -1, 2}, {-1, -1, -2},
		}}, false},
		// A tautological clause repeating its variable, then ¬x1 forced.
		{ThreeSATInstance{1, [][3]int{{1, 1, -1}, {-1, -1, -1}}}, true},
		// Only negative occurrences: the neg pattern still ties ?n1 to ?x1.
		{ThreeSATInstance{2, [][3]int{{-1, -1, -2}, {-1, 2, 2}, {-2, -2, 1}}}, true},
	}
	for i, c := range cases {
		if got := c.f.Satisfiable(); got != c.want {
			t.Errorf("case %d: solver says %v, want %v", i, got, c.want)
		}
		if got := c.f.SatisfiableBruteForce(); got != c.want {
			t.Errorf("case %d: brute force says %v, want %v", i, got, c.want)
		}
	}
}

func TestThreeSATRandomAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sat := 0
	for round := 0; round < 300; round++ {
		// Few variables, so clauses often repeat one (x1 ∨ x1 ∨ ¬x1).
		n := 1 + rng.Intn(7)
		m := 1 + rng.Intn(8*n+2)
		f := ThreeSATInstance{NumVars: n}
		for k := 0; k < m; k++ {
			var cl [3]int
			for i := 0; i < 3; i++ {
				cl[i] = 1 + rng.Intn(n)
				if rng.Intn(2) == 0 {
					cl[i] = -cl[i]
				}
			}
			f.Clauses = append(f.Clauses, cl)
		}
		want := f.SatisfiableBruteForce()
		if f.Satisfiable() != want {
			t.Fatalf("round %d: solver disagrees with brute force (%v) on %v", round, want, f)
		}
		if want {
			sat++
		}
	}
	if sat < 30 || sat > 270 {
		t.Fatalf("unbalanced workload: %d of 300 instances satisfiable", sat)
	}
}
