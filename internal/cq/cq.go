// Package cq implements the conjunctive-query side of the paper: the
// blank-node-induced-cycle test of Section 2.4, GYO hypergraph
// acyclicity and join trees over triple patterns, Yannakakis semijoin
// evaluation of acyclic bodies (the polynomial entailment path), and the
// 3SAT reduction behind Theorem 6.1.
//
// Section 2.4 turns a simple graph G into a Boolean conjunctive query Q_G
// and a database D_G. On the dictionary-encoded store that
// correspondence is the identity: a body's triples are the atoms of Q_G
// (blank nodes are its variables) and a match.Index is D_G, so this
// package keeps no relations of its own.
package cq

import (
	"errors"
	"fmt"
	"slices"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

// BlankCycleFree reports whether the simple graph G has no cycles induced
// by blank nodes (Section 2.4): it checks that the undirected simple
// graph on the blank nodes of G — with an edge between two distinct
// blanks whenever some triple connects them — is a forest. If it is, Q_G
// is an acyclic conjunctive query and entailment into G is decidable in
// polynomial time. Each blank component of G (graph.BlankComponents) is
// connected, so it is a tree iff it has fewer edges than blanks.
func BlankCycleFree(g *graph.Graph) bool {
	d := g.Dict()
	for _, comp := range g.BlankComponents() {
		blanks, edges := map[dict.ID]bool{}, map[[2]dict.ID]bool{}
		for _, t := range comp {
			s, o := t[0], t[2]
			for _, x := range [2]dict.ID{s, o} {
				if d.KindOf(x) == term.KindBlank {
					blanks[x] = true
				}
			}
			if s != o && blanks[s] && blanks[o] {
				edges[[2]dict.ID{min(s, o), max(s, o)}] = true
			}
		}
		if len(edges) >= len(blanks) {
			return false
		}
	}
	return true
}

// JoinTree is a join tree over the triple patterns of an acyclic body:
// Parent[i] is the index of pattern i's parent (-1 for roots), in some
// GYO elimination order Order (leaves first).
type JoinTree struct {
	Patterns []graph.Triple
	Parent   []int
	Order    []int
}

// blanks returns the distinct blank nodes of a pattern: its hyperedge.
func blanks(t graph.Triple) []term.Term {
	var out []term.Term
	for _, x := range t.Terms() {
		if x.IsBlank() && !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// GYO runs the Graham–Yu–Özsoyoğlu ear-removal algorithm on the body's
// hypergraph, whose hyperedges are the blank nodes of each pattern. It
// returns a join tree and true iff the body is acyclic.
//
// A pattern E is an ear if every blank of E is either exclusive to E or
// contained in some other pattern W (the witness, which becomes E's
// parent).
func GYO(body []graph.Triple) (*JoinTree, bool) {
	n := len(body)
	jt := &JoinTree{Patterns: body, Parent: make([]int, n)}
	edges := make([][]term.Term, n)
	alive := make([]bool, n)
	// count[b] = number of alive patterns containing blank b.
	count := map[term.Term]int{}
	for i, t := range body {
		jt.Parent[i] = -1
		alive[i] = true
		edges[i] = blanks(t)
		for _, b := range edges[i] {
			count[b]++
		}
	}
	// covers reports whether edges[w] holds every blank of edges[e] that
	// another alive pattern shares.
	covers := func(w, e int) bool {
		for _, b := range edges[e] {
			if count[b] > 1 && !slices.Contains(edges[w], b) {
				return false
			}
		}
		return true
	}

	for remaining := n; remaining > 1; remaining-- {
		ear, witness := -1, -1
		for i := 0; i < n && ear < 0; i++ {
			if !alive[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if i != j && alive[j] && covers(j, i) {
					ear, witness = i, j
					break
				}
			}
		}
		if ear < 0 {
			return nil, false // no ear: cyclic
		}
		jt.Parent[ear] = witness
		jt.Order = append(jt.Order, ear)
		alive[ear] = false
		for _, b := range edges[ear] {
			count[b]--
		}
	}
	// The last alive pattern is the root.
	for i := 0; i < n; i++ {
		if alive[i] {
			jt.Order = append(jt.Order, i)
		}
	}
	return jt, true
}

// IsAcyclic reports hypergraph (α-)acyclicity of the body via GYO.
func IsAcyclic(body []graph.Triple) bool {
	_, ok := GYO(body)
	return ok
}

// Yannakakis decides whether body maps into the graph indexed by ix —
// blank nodes are the unknowns, as in entailment — for an acyclic body,
// in polynomial time by bottom-up semijoin reduction along a GYO join
// tree (Yannakakis 1981). Each pattern's rows are its MatchID range
// scan; constants are resolved with Dict.Lookup, so nothing is interned
// and a constant absent from the data answers false. It returns an error
// when the body is not acyclic.
func Yannakakis(ix *match.Index, body *graph.Graph) (bool, error) {
	pats := body.Triples()
	jt, ok := GYO(pats)
	if !ok {
		return false, errors.New("cq: body is not acyclic")
	}
	rows := make([][]dict.Triple3, len(pats))
	for i, p := range pats {
		rows[i] = scan(ix, p)
		if len(rows[i]) == 0 {
			return false, nil
		}
	}
	// Bottom-up pass in GYO order: semijoin each parent with its child,
	// hashing the child's values on the shared blanks so each semijoin is
	// linear in the two sides.
	for _, child := range jt.Order {
		parent := jt.Parent[child]
		if parent == -1 {
			continue
		}
		cpos, ppos := shared(pats[child], pats[parent])
		keys := make(map[dict.Triple3]struct{}, len(rows[child]))
		for _, r := range rows[child] {
			keys[project(r, cpos)] = struct{}{}
		}
		kept := rows[parent][:0]
		for _, r := range rows[parent] {
			if _, ok := keys[project(r, ppos)]; ok {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			return false, nil
		}
		rows[parent] = kept
	}
	return true, nil
}

// scan returns the data triples pattern p matches: its constants bound
// and its blanks wildcards, keeping only rows where a repeated blank
// takes one value. A constant absent from the dictionary matches nothing.
func scan(ix *match.Index, p graph.Triple) []dict.Triple3 {
	terms := p.Terms()
	var key dict.Triple3
	var ties [][2]int // position pairs holding the same blank
	for i, x := range terms {
		if x.IsBlank() {
			if j := slices.Index(terms[:i], x); j >= 0 {
				ties = append(ties, [2]int{j, i})
			}
			continue
		}
		id, ok := ix.Dict().Lookup(x)
		if !ok {
			return nil
		}
		key[i] = id
	}
	var out []dict.Triple3
	ix.Graph().MatchID(key[0], key[1], key[2], func(t dict.Triple3) bool {
		for _, tie := range ties {
			if t[tie[0]] != t[tie[1]] {
				return true
			}
		}
		out = append(out, t)
		return true
	})
	return out
}

// shared returns, for each blank two patterns have in common, its first
// position in a and in b; unused slots are -1.
func shared(a, b graph.Triple) (pa, pb [3]int) {
	pa, pb = [3]int{-1, -1, -1}, [3]int{-1, -1, -1}
	at, bt := a.Terms(), b.Terms()
	k := 0
	for i, x := range at {
		if !x.IsBlank() || slices.Index(at[:], x) != i {
			continue
		}
		if j := slices.Index(bt[:], x); j >= 0 {
			pa[k], pb[k] = i, j
			k++
		}
	}
	return pa, pb
}

// project keys a row by its values at the given positions.
func project(t dict.Triple3, pos [3]int) dict.Triple3 {
	var key dict.Triple3
	for k, i := range pos {
		if i >= 0 {
			key[k] = t[i]
		}
	}
	return key
}

// ThreeSATInstance is a 3-CNF formula over variables 1..NumVars; each
// clause has three literals, negative numbers denoting negations.
type ThreeSATInstance struct {
	NumVars int
	Clauses [][3]int
}

// The reduction's constants: the truth values and the negation relation.
var (
	satFalse = term.NewIRI("urn:sat:0")
	satTrue  = term.NewIRI("urn:sat:1")
	satNeg   = term.NewIRI("urn:sat:neg")
)

// reduction encodes the instance as query evaluation over a fixed
// database (the reduction behind Theorem 6.1). The data holds the seven
// satisfying triples (a, b, c) of a ∨ b ∨ c over {0, 1} plus (0, neg, 1)
// and (1, neg, 0). The body has one pattern per clause, a positive
// literal k as ?xk and a negative one as ?nk (variables may stand in
// predicate position), and one (?xk, neg, ?nk) per variable.
func (f ThreeSATInstance) reduction() ([]graph.Triple, *graph.Graph) {
	vals := [2]term.Term{satFalse, satTrue}
	data := graph.New(graph.T(satFalse, satNeg, satTrue), graph.T(satTrue, satNeg, satFalse))
	for a := 1; a < 8; a++ {
		data.Add(graph.T(vals[a>>2], vals[a>>1&1], vals[a&1]))
	}
	lit := func(l int) term.Term {
		if l < 0 {
			return term.NewVar(fmt.Sprintf("n%d", -l))
		}
		return term.NewVar(fmt.Sprintf("x%d", l))
	}
	body := make([]graph.Triple, 0, len(f.Clauses)+f.NumVars)
	// The solver breaks selectivity ties in body order. Variable patterns
	// first runs BenchmarkQueryQueryComplexity/3SATvars16 about 2.5x
	// faster than variable patterns last (2-core Xeon).
	for k := 1; k <= f.NumVars; k++ {
		body = append(body, graph.T(lit(k), satNeg, lit(-k)))
	}
	for _, cl := range f.Clauses {
		body = append(body, graph.T(lit(cl[0]), lit(cl[1]), lit(cl[2])))
	}
	return body, data
}

// Satisfiable decides the instance by evaluating its reduction with the
// engine's solver.
func (f ThreeSATInstance) Satisfiable() bool {
	body, data := f.reduction()
	_, ok, _ := match.NewSolver(match.NewIndex(data), match.Options{}).First(body)
	return ok
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SatisfiableBruteForce decides the instance by enumerating assignments
// (test oracle).
func (f ThreeSATInstance) SatisfiableBruteForce() bool {
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		ok := true
		for _, cl := range f.Clauses {
			sat := false
			for _, lit := range cl {
				v := (mask >> (abs(lit) - 1)) & 1
				if (lit > 0 && v == 1) || (lit < 0 && v == 0) {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
