package main

import (
	"fmt"
	"math/rand"
	"strings"

	"semwebdb/internal/rdfs"
)

// pattern is one body triple in N-Triples concrete syntax; a position
// starting with '?' is a variable.
type pattern [3]string

// queryOp is one /query request with the answer the model expects.
type queryOp struct {
	shape string // point, star, type_scan, chain3, star3, written
	text  string
	limit int // limit parameter, 0 for none
	want  int // expected rows (= matchings: every head carries all body variables)
	body  []pattern
}

const streamLimit = 5000

var typeIRI = "<" + rdfs.Type.Value + ">"

func iri(s string) string { return "<" + s + ">" }

// queryText renders the tableau format of query.ParseQuery. The head
// repeats the body, so each matching is its own single answer and rows
// equal matchings.
func queryText(body []pattern) string {
	var b strings.Builder
	b.WriteString("HEAD:\n")
	for _, p := range body {
		fmt.Fprintf(&b, "%s %s %s .\n", p[0], p[1], p[2])
	}
	b.WriteString("BODY:\n")
	for _, p := range body {
		fmt.Fprintf(&b, "%s %s %s .\n", p[0], p[1], p[2])
	}
	return b.String()
}

func newOp(shape string, limit, count int, body ...pattern) queryOp {
	if limit > 0 && count > limit {
		count = limit
	}
	return queryOp{shape: shape, text: queryText(body), limit: limit, want: count, body: body}
}

// prop and class map ArtSchema's numbering to the model's ids.
// Read-only, so concurrent clients may call them.
func (m *model) prop(n int) int  { return m.props.ids[propIRI(n).Value] }
func (m *model) class(n int) int { return m.classes.ids[classIRI(n).Value] }

// pointOp draws one point_read request: 70 % one-pattern lookups
// <ind> <prop> ?X, 30 % stars that add the derived typings of the same
// individual. Constants are uniform over all individuals, so texts
// practically never repeat.
func (m *model) pointOp(rng *rand.Rand) queryOp {
	i := rng.Intn(len(m.inds.list))
	ind := iri(m.inds.list[i])
	if rng.Intn(10) < 7 {
		q := rng.Intn(len(m.props.list))
		return newOp("point", 0, len(m.values(i, q)),
			pattern{ind, iri(m.props.list[q]), "?X"})
	}
	top := m.prop(0)
	return newOp("star", 0, len(m.values(i, top))*len(m.types(i)),
		pattern{ind, iri(m.props.list[top]), "?Y"},
		pattern{ind, typeIRI, "?C"})
}

// streamOps returns join_stream's three fixed shapes.
func (m *model) streamOps() []queryOp {
	p := func(i int) string { return iri(propIRI(i).Value) }
	scanClass, endClass := m.class(1), m.class(2)
	top := m.prop(0)

	typed := make([]map[int]bool, len(m.inds.list))
	scan := 0
	for i := range typed {
		typed[i] = m.types(i)
		if typed[i][scanClass] {
			scan++
		}
	}
	// paths[k][x]: prop-0 paths of k hops ending at x.
	hops := func(prev []int) []int {
		next := make([]int, len(m.inds.list))
		for s := range m.inds.list {
			for o := range m.values(s, top) {
				next[o] += prev[s]
			}
		}
		return next
	}
	ones := make([]int, len(m.inds.list))
	for i := range ones {
		ones[i] = 1
	}
	paths := hops(hops(hops(ones)))
	chain, star := 0, 0
	for i := range m.inds.list {
		if typed[i][endClass] {
			chain += paths[i]
		}
		// One object per matching for each of the three properties.
		star += len(m.values(i, top)) * len(m.values(i, m.prop(1))) * len(m.values(i, m.prop(2)))
	}
	return []queryOp{
		newOp("type_scan", streamLimit, scan,
			pattern{"?X", typeIRI, iri(classIRI(1).Value)}),
		newOp("chain3", streamLimit, chain,
			pattern{"?A", p(0), "?B"}, pattern{"?B", p(0), "?C"}, pattern{"?C", p(0), "?D"},
			pattern{"?D", typeIRI, iri(classIRI(2).Value)}),
		newOp("star3", streamLimit, star,
			pattern{"?S", p(0), "?A"}, pattern{"?S", p(1), "?B"}, pattern{"?S", p(2), "?C"}),
	}
}

// checkRows verifies every row of an answer against the model: each
// body pattern, instantiated by the row's bindings, must hold in cl(D),
// and no row may repeat.
func (m *model) checkRows(op queryOp, rows []map[string]string) error {
	seen := map[string]bool{}
	for _, b := range rows {
		key := fmt.Sprint(b)
		if seen[key] {
			return fmt.Errorf("duplicate row %s", key)
		}
		seen[key] = true
		for _, p := range op.body {
			var g [3]string
			for k, x := range p {
				if strings.HasPrefix(x, "?") {
					v, ok := b[x[1:]]
					if !ok {
						return fmt.Errorf("row lacks binding for %s", x)
					}
					x = v
				}
				g[k] = strings.Trim(x, "<>")
			}
			if !m.holds(g[0], g[1], g[2]) {
				return fmt.Errorf("row %s: %v is not in cl(D)", key, g)
			}
		}
	}
	return nil
}
