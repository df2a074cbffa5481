package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"semwebdb/internal/dict"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

// oracleRetraction is the reference for the component search: the
// per-triple test of Definition 3.7. G is non-lean iff for some
// non-ground triple t there is a map G → G∖{t}: if μ(G) ⊊ G, μ misses
// some t, and ground triples are fixed by every map.
func oracleRetraction(g *graph.Graph) (graph.Map, bool) {
	for _, t := range g.Triples() {
		if t.IsGround() {
			continue
		}
		if mu, ok := hom.FindMap(g, g.Without(t)); ok {
			return mu, true
		}
	}
	return nil, false
}

func oracleLean(g *graph.Graph) bool {
	_, proper := oracleRetraction(g)
	return !proper
}

// oracleCore retracts G by whole-graph maps until it is lean.
func oracleCore(g *graph.Graph) *graph.Graph {
	cur := g.Clone()
	for {
		mu, proper := oracleRetraction(cur)
		if !proper {
			return cur
		}
		cur = mu.Apply(cur)
	}
}

// checkAgainstOracle checks IsLean and Core on g against the oracle:
// the verdicts agree, and the core is lean per the oracle, a subgraph
// of G, equivalent to G by maps both ways, the image of G under the
// witness map, and isomorphic to the oracle's core.
func checkAgainstOracle(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	lean := oracleLean(g)
	if got := IsLean(g); got != lean {
		t.Fatalf("%s: IsLean = %v, oracle %v\n%v", name, got, lean, g)
	}
	c, mu := Core(g)
	switch {
	case !oracleLean(c):
		t.Fatalf("%s: core not lean per the oracle\n%v", name, c)
	case !c.SubgraphOf(g):
		t.Fatalf("%s: core not a subgraph of G\n%v", name, c)
	case !hom.ExistsMap(g, c) || !hom.ExistsMap(c, g):
		t.Fatalf("%s: core and G do not map into each other\n%v", name, c)
	case !mu.Apply(g).Equal(c):
		t.Fatalf("%s: witness map does not carry G onto the core\n%v", name, c)
	case lean != c.Equal(g):
		t.Fatalf("%s: lean %v but core = G is %v", name, lean, c.Equal(g))
	case !hom.Isomorphic(c, oracleCore(g)):
		t.Fatalf("%s: core not isomorphic to the oracle's\n%v\nvs\n%v", name, c, oracleCore(g))
	}
	checkViewAgainstCopy(t, name, g, c)
}

// checkViewAgainstCopy checks that G's index hiding Gone(G) matches
// exactly like an index over core(G)'s copy c: for every key of the 8
// bound/unbound shapes drawn from a triple of G, a one-pattern search
// with the unbound positions as unknowns finds the same triples on both.
func checkViewAgainstCopy(t testing.TB, name string, g, c *graph.Graph) {
	t.Helper()
	ix := match.NewIndex(g)
	gone, err := Gone(context.Background(), ix)
	if err != nil {
		t.Fatal(err)
	}
	view, copied := ix.Hiding(gone), match.NewIndex(c)
	unknowns := dict.Triple3{math.MaxUint32, math.MaxUint32 - 1, math.MaxUint32 - 2} // IDs no term has
	isUnknown := map[dict.ID]bool{unknowns[0]: true, unknowns[1]: true, unknowns[2]: true}
	scan := func(ix *match.Index, key dict.Triple3) []dict.Triple3 {
		var out []dict.Triple3
		match.NewSolver(ix, match.Options{}).SolveIDs([]dict.Triple3{key}, isUnknown, func(b match.Binding) bool {
			var t dict.Triple3
			for i, id := range key {
				if v, ok := b[id]; ok {
					t[i] = v
				} else {
					t[i] = id
				}
			}
			out = append(out, t)
			return true
		})
		return out
	}
	g.EachID(func(tr dict.Triple3) bool {
		for shape := 0; shape < 8; shape++ {
			key := unknowns
			for i := range key {
				if shape&(1<<i) != 0 {
					key[i] = tr[i]
				}
			}
			if got, want := scan(view, key), scan(copied, key); !slices.Equal(got, want) {
				t.Fatalf("%s: key %v: view hiding %v finds %v, the core's copy %v", name, key, gone, got, want)
			}
		}
		return true
	})
}

func TestLeanAgreesWithOracleOnGenerators(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := gen.RedundantGraph(12, 10, seed)
		checkAgainstOracle(t, fmt.Sprintf("RedundantGraph/%d", seed), g)
		if c, _ := Core(g); c.Len() != 12 || !c.IsGround() {
			t.Fatalf("RedundantGraph/%d: core has %d triples, want the 12-triple kernel", seed, c.Len())
		}
	}
	for n := 3; n <= 8; n++ {
		checkAgainstOracle(t, fmt.Sprintf("Cycle/%d", n), gen.Enc(gen.Cycle(n), "v"))
	}
	for n := 2; n <= 4; n++ {
		checkAgainstOracle(t, fmt.Sprintf("Clique/%d", n), gen.Enc(gen.Clique(n), "v"))
	}
	for seed := int64(0); seed < 8; seed++ {
		checkAgainstOracle(t, fmt.Sprintf("Random/%d", seed), gen.Enc(gen.RandomGraph(6, 9, seed), "v"))
	}
}

func TestLeanAgreesWithOracleOnShapes(t *testing.T) {
	a, b, c := iri("a"), iri("b"), iri("c")
	p, q := iri("p"), iri("q")
	x, y, z := blk("x"), blk("y"), blk("z")
	u, w := blk("u"), blk("w")
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		lean   bool
		coreSz int
	}{
		{"two isomorphic components", graph.New(
			graph.T(x, p, y), graph.T(y, q, c),
			graph.T(u, p, w), graph.T(w, q, c),
		), false, 2},
		{"blank maps to IRI", graph.New(graph.T(a, p, x), graph.T(a, p, b)), false, 1},
		{"self-loop alone", graph.New(graph.T(x, p, x)), true, 1},
		{"self-loop onto ground loop", graph.New(graph.T(x, p, x), graph.T(a, p, a)), false, 1},
		{"edge onto self-loop", graph.New(graph.T(x, p, x), graph.T(y, p, z)), false, 1},
		{"blank subject and object alone", graph.New(graph.T(x, p, y)), true, 1},
		{"blank subject and object onto ground", graph.New(graph.T(x, p, y), graph.T(a, p, b)), false, 1},
		// x→y→z→z: the first map found need not be idempotent.
		{"path into a loop", graph.New(graph.T(x, p, y), graph.T(y, p, z), graph.T(z, p, z)), false, 1},
		{"Example 3.8 G2", example38G2(), true, 4},
	} {
		checkAgainstOracle(t, tc.name, tc.g)
		if IsLean(tc.g) != tc.lean {
			t.Fatalf("%s: IsLean = %v, want %v", tc.name, !tc.lean, tc.lean)
		}
		if c, _ := Core(tc.g); c.Len() != tc.coreSz {
			t.Fatalf("%s: core has %d triples, want %d\n%v", tc.name, c.Len(), tc.coreSz, c)
		}
	}
}

// FuzzLeanAgrees decodes bytes into a small graph over a fixed term set
// with at most four blanks and checks IsLean and Core against the
// per-triple oracle, and G's index hiding Gone(G) against an index over
// the core's copy.
func FuzzLeanAgrees(f *testing.F) {
	f.Add([]byte("\x00\x00\x04\x04\x00\x05"))
	f.Add([]byte("\x04\x00\x05\x05\x00\x04\x06\x00\x07\x07\x00\x06"))
	f.Add([]byte("\x04\x00\x04\x00\x00\x00\x05\x01\x06"))
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes := []term.Term{
			iri("a"), iri("b"), term.NewLiteral("l"), iri("c"),
			blk("x"), blk("y"), blk("z"), blk("w"),
		}
		preds := []term.Term{iri("p"), iri("q")}
		g := graph.New()
		for i := 0; i+2 < len(data) && i < 3*10; i += 3 {
			g.Add(graph.T(nodes[int(data[i])%len(nodes)], preds[int(data[i+1])%len(preds)], nodes[int(data[i+2])%len(nodes)]))
		}
		checkAgainstOracle(t, "fuzz", g)
	})
}
