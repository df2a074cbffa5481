package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// Frozen dataset parameters. The base is gen.ArtSchema (the paper's
// Fig. 1 schema scaled up: a 63-class subclass tree of depth 5 and a
// 4-property subproperty chain) plus domain/range declarations on the
// three lower properties, so all four properties derive typings. With
// these declarations |cl(D)|/|D| measures 4.36 (bench/README.md).
const (
	dsClasses    = 63
	dsProps      = 4
	dsTriples    = 100000 // |D| of the full-size base
	quickTriples = 5000   // |D| under -quick
	baseChunks   = 20     // /load requests that carry the base
	tailChunks   = 10     // bulk_recover's WAL tail, each a fifth of a base chunk
)

// extraSchema declares domain and range for prop 1..3 (ArtSchema only
// gives them to prop 0), as (prop, domain class, range class).
var extraSchema = [][3]int{{1, 1, 2}, {2, 3, 2}, {3, 3, 6}}

// schemaTriples is what ArtSchema and extraSchema emit besides the two
// triples per individual (minus the first individual's missing link).
const schemaTriples = (dsClasses - 1) + (dsProps - 1) + 2 - 1 + 2*3

// dataset is everything a workload sends, generated from the seed
// alone: the same seed gives byte-identical requests.
type dataset struct {
	base   []graph.Triple // |D|, deterministically shuffled
	chunks []string       // base as N-Triples request bodies
	tail   []string       // bulk_recover's post-snapshot chunks
	tailTs []graph.Triple // the tail's triples, for the model
	model  *model
}

func classIRI(i int) term.Term { return term.NewIRI(fmt.Sprintf("urn:semwebdb:Class:%d", i)) }
func propIRI(i int) term.Term  { return term.NewIRI(fmt.Sprintf("urn:semwebdb:prop:%d", i)) }
func indIRI(i int) term.Term   { return term.NewIRI(fmt.Sprintf("urn:semwebdb:ind:%d", i)) }

func ntBody(ts []graph.Triple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String() + " .\n")
	}
	return b.String()
}

func newDataset(seed int64, triples int) (*dataset, error) {
	nInd := (triples - schemaTriples) / 2
	g := gen.ArtSchema(dsClasses, dsProps, nInd, seed)
	for _, e := range extraSchema {
		g.Add(graph.T(propIRI(e[0]), rdfs.Domain, classIRI(e[1])))
		g.Add(graph.T(propIRI(e[0]), rdfs.Range, classIRI(e[2])))
	}
	if !g.IsGround() {
		return nil, fmt.Errorf("dataset: generated base is not ground")
	}
	base := g.Triples() // canonical order, so the shuffle below is reproducible
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(base), func(i, j int) { base[i], base[j] = base[j], base[i] })

	ds := &dataset{base: base, model: newModel(base)}
	per := (len(base) + baseChunks - 1) / baseChunks
	for lo := 0; lo < len(base); lo += per {
		ds.chunks = append(ds.chunks, ntBody(base[lo:min(lo+per, len(base))]))
	}
	// The tail continues ArtSchema's individual pattern past the base:
	// a typing plus a link into the base per new individual.
	tailPer := per / 5
	for c := 0; c < tailChunks; c++ {
		var ts []graph.Triple
		for len(ts) < tailPer {
			i := nInd + len(ds.tailTs)/2
			ts = append(ts,
				graph.T(indIRI(i), rdfs.Type, classIRI(rng.Intn(dsClasses))),
				graph.T(indIRI(i), propIRI(rng.Intn(dsProps)), indIRI(rng.Intn(nInd))))
			ds.tailTs = append(ds.tailTs, ts[len(ts)-2:]...)
		}
		ds.tail = append(ds.tail, ntBody(ts))
	}
	return ds, nil
}

// model is the benchmark's oracle: the generated input walked into an
// adjacency plus a tiny RDFS schema (rules (2)-(7) of the paper on a
// ground graph). It never consults the engine; expected row counts and
// the sampled row-by-row checks come from here.
type model struct {
	classes, props, inds *names
	classUp, propUp      [][]int // reflexive-transitive sc / sp successors
	dom, rng             [][]int // declared per property
	asserted             [][]int // per individual
	out, in              [][]link
}

type link struct{ prop, other int }

// names interns IRIs of one kind to dense ints.
type names struct {
	ids  map[string]int
	list []string
}

func newNames() *names { return &names{ids: map[string]int{}} }

func (n *names) id(iri string) int {
	if i, ok := n.ids[iri]; ok {
		return i
	}
	n.ids[iri] = len(n.list)
	n.list = append(n.list, iri)
	return len(n.list) - 1
}

func grow[T any](s [][]T, i int) [][]T {
	for len(s) <= i {
		s = append(s, nil)
	}
	return s
}

func newModel(ts []graph.Triple) *model {
	m := &model{classes: newNames(), props: newNames(), inds: newNames()}
	var scEdges, spEdges [][2]int
	for _, t := range ts {
		switch t.P {
		case rdfs.SubClassOf:
			scEdges = append(scEdges, [2]int{m.classes.id(t.S.Value), m.classes.id(t.O.Value)})
		case rdfs.SubPropertyOf:
			spEdges = append(spEdges, [2]int{m.props.id(t.S.Value), m.props.id(t.O.Value)})
		case rdfs.Domain, rdfs.Range:
			p, c := m.props.id(t.S.Value), m.classes.id(t.O.Value)
			m.dom, m.rng = grow(m.dom, p), grow(m.rng, p)
			if t.P == rdfs.Domain {
				m.dom[p] = append(m.dom[p], c)
			} else {
				m.rng[p] = append(m.rng[p], c)
			}
		}
	}
	for _, t := range ts {
		m.add(t)
	}
	m.classUp = reachable(len(m.classes.list), scEdges)
	m.propUp = reachable(len(m.props.list), spEdges)
	m.dom, m.rng = grow(m.dom, len(m.props.list)), grow(m.rng, len(m.props.list))
	return m
}

// add records one instance-level triple (a typing or a link between
// individuals); schema triples are handled by newModel.
func (m *model) add(t graph.Triple) {
	switch t.P {
	case rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Domain, rdfs.Range:
	case rdfs.Type:
		i, c := m.inds.id(t.S.Value), m.classes.id(t.O.Value)
		m.asserted = grow(m.asserted, i)
		m.asserted[i] = append(m.asserted[i], c)
	default:
		s, p, o := m.inds.id(t.S.Value), m.props.id(t.P.Value), m.inds.id(t.O.Value)
		m.out, m.in = grow(m.out, max(s, o)), grow(m.in, max(s, o))
		m.out[s] = append(m.out[s], link{p, o})
		m.in[o] = append(m.in[o], link{p, s})
	}
}

// reachable returns, per node, the sorted nodes reachable over edges,
// the node itself included.
func reachable(n int, edges [][2]int) [][]int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	up := make([][]int, n)
	for s := range up {
		seen := map[int]bool{s: true}
		stack := []int{s}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					stack = append(stack, y)
				}
			}
		}
		for x := range seen {
			up[s] = append(up[s], x)
		}
		sort.Ints(up[s])
	}
	return up
}

func at[T any](s [][]T, i int) []T {
	if i < len(s) {
		return s[i]
	}
	return nil
}

// linkTypes returns the classes a subject (dom) or object (rng) of a
// triple with property p is typed with: rule (6)/(7) through every
// superproperty, then rule (5) up the class tree.
func (m *model) linkTypes(p int, decl [][]int, into map[int]bool) {
	for _, q := range m.propUp[p] {
		for _, c := range decl[q] {
			for _, a := range m.classUp[c] {
				into[a] = true
			}
		}
	}
}

// types returns the classes c with (ind, type, c) in cl(D).
func (m *model) types(i int) map[int]bool {
	set := map[int]bool{}
	for _, c := range at(m.asserted, i) {
		for _, a := range m.classUp[c] {
			set[a] = true
		}
	}
	for _, l := range at(m.out, i) {
		m.linkTypes(l.prop, m.dom, set)
	}
	for _, l := range at(m.in, i) {
		m.linkTypes(l.prop, m.rng, set)
	}
	return set
}

func contains(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// values returns the distinct o with (ind, q, o) in cl(D).
func (m *model) values(i, q int) map[int]bool {
	set := map[int]bool{}
	for _, l := range at(m.out, i) {
		if contains(m.propUp[l.prop], q) {
			set[l.other] = true
		}
	}
	return set
}

// holds reports whether the ground triple is in cl(D), for the triple
// shapes the workloads' query bodies use.
func (m *model) holds(s, p, o string) bool {
	i, ok := m.inds.ids[s]
	if !ok {
		return false
	}
	if p == rdfs.Type.Value {
		c, ok := m.classes.ids[o]
		return ok && m.types(i)[c]
	}
	q, okq := m.props.ids[p]
	j, okj := m.inds.ids[o]
	return okq && okj && m.values(i, q)[j]
}
