// Package gen provides the deterministic workload generators used by the
// experiment harness and the benchmarks: encodings enc(H) of standard
// graphs (Section 2.4), the hardness-construction instances behind
// Theorems 2.9, 3.12 and 6.1, RDFS schema/data generators in the style of
// the paper's Fig. 1, redundancy-injected graphs for core/normal-form
// experiments, and equivalence-preserving rewrites for syntax-
// independence experiments.
//
// Every generator takes an explicit seed (or is fully deterministic), so
// the experiments in DESIGN.md reproduce bit-for-bit.
package gen

import (
	"fmt"
	"math/rand"

	"semwebdb/internal/closure"
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// EdgePredicate is the distinguished URI e of the enc(·) encoding.
var EdgePredicate = term.NewIRI("urn:semwebdb:enc:e")

// iriN mints node URIs.
func iriN(prefix string, i int) term.Term {
	return term.NewIRI(fmt.Sprintf("urn:semwebdb:%s:%d", prefix, i))
}

// blankN mints blank nodes.
func blankN(prefix string, i int) term.Term {
	return term.NewBlank(fmt.Sprintf("%s%d", prefix, i))
}

// StdGraph is a standard directed graph on {0, …, N-1}.
type StdGraph struct {
	N     int
	Edges [][2]int
}

// Enc returns enc(H): each node v becomes the blank X_v, each edge (u,v)
// the triple (X_u, e, X_v) (Section 2.4).
func Enc(h StdGraph, label string) *graph.Graph {
	g := graph.New()
	for _, e := range h.Edges {
		g.Add(graph.T(blankN(label, e[0]), EdgePredicate, blankN(label, e[1])))
	}
	return g
}

// EncGround is enc(H) with URI nodes instead of blanks (a rigid target).
func EncGround(h StdGraph, label string) *graph.Graph {
	g := graph.New()
	for _, e := range h.Edges {
		g.Add(graph.T(iriN(label, e[0]), EdgePredicate, iriN(label, e[1])))
	}
	return g
}

// Cycle returns the symmetric (undirected-as-two-arcs) cycle C_n.
func Cycle(n int) StdGraph {
	h := StdGraph{N: n}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		h.Edges = append(h.Edges, [2]int{i, j}, [2]int{j, i})
	}
	return h
}

// Clique returns K_n (all ordered pairs, no loops).
func Clique(n int) StdGraph {
	h := StdGraph{N: n}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				h.Edges = append(h.Edges, [2]int{i, j})
			}
		}
	}
	return h
}

// Path returns the directed path 0 → 1 → … → n-1.
func Path(n int) StdGraph {
	h := StdGraph{N: n}
	for i := 0; i+1 < n; i++ {
		h.Edges = append(h.Edges, [2]int{i, i + 1})
	}
	return h
}

// RandomGraph returns a random digraph with n nodes and m distinct edges.
func RandomGraph(n, m int, seed int64) StdGraph {
	rng := rand.New(rand.NewSource(seed))
	h := StdGraph{N: n}
	used := map[[2]int]struct{}{}
	for len(h.Edges) < m {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		if e[0] == e[1] {
			continue
		}
		if _, ok := used[e]; ok {
			continue
		}
		used[e] = struct{}{}
		h.Edges = append(h.Edges, e)
	}
	return h
}

// ThreeColorabilityInstance returns (enc(H) with blanks, enc(K3) ground):
// K3 ⊨ enc(H) iff H is 3-colorable — the NP-hardness workload of
// Theorem 2.9.
func ThreeColorabilityInstance(h StdGraph) (src, dst *graph.Graph) {
	return Enc(h, "v"), EncGround(Clique(3), "k")
}

// ScChain returns the subclass chain c_1 sc c_2 sc … sc c_n (n-1 triples)
// whose closure is Θ(n²) — the Theorem 3.6(3) workload.
func ScChain(n int) *graph.Graph {
	g := graph.New()
	for i := 1; i < n; i++ {
		g.Add(graph.T(iriN("c", i), rdfs.SubClassOf, iriN("c", i+1)))
	}
	return g
}

// SpChain returns the subproperty chain p_1 sp … sp p_n plus one data
// triple using p_1, so that rule (3) materializes n inherited copies.
func SpChain(n int) *graph.Graph {
	g := graph.New()
	for i := 1; i < n; i++ {
		g.Add(graph.T(iriN("p", i), rdfs.SubPropertyOf, iriN("p", i+1)))
	}
	g.Add(graph.T(iriN("x", 0), iriN("p", 1), iriN("y", 0)))
	return g
}

// RedundantGraph returns a lean ground kernel of nk triples plus nr
// redundant blank-node instances of kernel triples: its core is exactly
// the kernel. The Theorem 3.12 / core-computation workload.
func RedundantGraph(nk, nr int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	type sp struct{ s, p, o term.Term }
	kernel := make([]sp, 0, nk)
	for i := 0; i < nk; i++ {
		t := sp{iriN("s", i), iriN("p", i%3), iriN("o", i)}
		kernel = append(kernel, t)
		g.Add(graph.T(t.s, t.p, t.o))
	}
	for i := 0; i < nr; i++ {
		k := kernel[rng.Intn(len(kernel))]
		switch rng.Intn(3) {
		case 0: // blank subject
			g.Add(graph.T(blankN("r", i), k.p, k.o))
		case 1: // blank object
			g.Add(graph.T(k.s, k.p, blankN("r", i)))
		default: // both blank
			g.Add(graph.T(blankN("r", i), k.p, blankN("rr", i)))
		}
	}
	return g
}

// ArtSchema returns a Fig. 1-style RDFS schema plus nInd individuals,
// generated deterministically: classes in a subclass tree, properties in
// a subproperty chain with domains and ranges, and typed individuals
// linked by leaf properties.
func ArtSchema(nClasses, nProps, nInd int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	class := func(i int) term.Term { return iriN("Class", i) }
	prop := func(i int) term.Term { return iriN("prop", i) }
	// Class tree: class i sc class (i-1)/2.
	for i := 1; i < nClasses; i++ {
		g.Add(graph.T(class(i), rdfs.SubClassOf, class((i-1)/2)))
	}
	// Property chain with dom/range on the top property.
	for i := 1; i < nProps; i++ {
		g.Add(graph.T(prop(i), rdfs.SubPropertyOf, prop(i-1)))
	}
	if nClasses > 0 && nProps > 0 {
		g.Add(graph.T(prop(0), rdfs.Domain, class(0)))
		g.Add(graph.T(prop(0), rdfs.Range, class(0)))
	}
	// Individuals typed at random leaf-ish classes, linked by random
	// properties.
	ind := func(i int) term.Term { return iriN("ind", i) }
	for i := 0; i < nInd; i++ {
		g.Add(graph.T(ind(i), rdfs.Type, class(rng.Intn(max(1, nClasses)))))
		if i > 0 {
			g.Add(graph.T(ind(i), prop(rng.Intn(max(1, nProps))), ind(rng.Intn(i))))
		}
	}
	return g
}

// EquivalentRewrite produces a graph equivalent to g by (1) renaming all
// blanks, (2) adding derivable triples sampled from the closure, and
// (3) adding fresh blank instances of existing triples. Used by the
// syntax-independence experiment (Theorem 3.19): nf(g) ≅ nf(rewrite(g)).
func EquivalentRewrite(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	// (1) rename blanks.
	ren := make(graph.Map)
	for i, b := range g.BlankNodeList() {
		ren[b] = blankN(fmt.Sprintf("rw%d_", seed%97), i)
	}
	out := ren.Apply(g)

	// (2) add a sample of derivable triples.
	cl := closure.RDFSCl(out)
	derivable := cl.Minus(out).Triples()
	rng.Shuffle(len(derivable), func(i, j int) {
		derivable[i], derivable[j] = derivable[j], derivable[i]
	})
	for i := 0; i < len(derivable) && i < 1+len(derivable)/2; i++ {
		out.Add(derivable[i])
	}

	// (3) add fresh blank instances of existing triples: each new triple
	// maps into the original, so equivalence is preserved.
	ts := out.Triples()
	for i := 0; i < 1+rng.Intn(3); i++ {
		t := ts[rng.Intn(len(ts))]
		fresh := blankN(fmt.Sprintf("inst%d_", seed%89), i)
		if !t.O.IsLiteral() && rng.Intn(2) == 0 {
			out.Add(graph.T(t.S, t.P, fresh))
			continue
		}
		out.Add(graph.T(fresh, t.P, t.O))
	}
	return out
}

// Random3SAT returns a random 3-CNF instance with n variables and m
// clauses.
func Random3SAT(n, m int, seed int64) (clauses [][3]int) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < m; k++ {
		var cl [3]int
		for i := 0; i < 3; i++ {
			cl[i] = 1 + rng.Intn(n)
			if rng.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		clauses = append(clauses, cl)
	}
	return clauses
}

// BlankChainBody returns a simple graph whose blanks form a path (no
// blank cycles — the acyclic CQ workload): X_0 e X_1 e … e X_n.
func BlankChainBody(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.Add(graph.T(blankN("q", i), EdgePredicate, blankN("q", i+1)))
	}
	return g
}

// BlankCycleBody returns a blank cycle of length n (the cyclic CQ
// workload).
func BlankCycleBody(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.Add(graph.T(blankN("q", i), EdgePredicate, blankN("q", (i+1)%n)))
	}
	return g
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
