package closure_test

import (
	"fmt"
	"testing"

	"semwebdb/internal/closure"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// BenchmarkRDFSClArtSchema times a full saturation of the benchmark
// harness's dataset shape at |D| ≈ 100k: gen.ArtSchema's 63-class tree
// and 4-property chain plus domain and range on props 1–3 (the
// harness's extraSchema). It lives in an external test package because
// gen imports closure.
func BenchmarkRDFSClArtSchema(b *testing.B) {
	g := gen.ArtSchema(63, 4, 49_965, 1)
	iri := func(kind string, i int) term.Term { return term.NewIRI(fmt.Sprintf("urn:semwebdb:%s:%d", kind, i)) }
	for _, e := range [][3]int{{1, 1, 2}, {2, 3, 2}, {3, 3, 6}} {
		g.Add(graph.T(iri("prop", e[0]), rdfs.Domain, iri("Class", e[1])))
		g.Add(graph.T(iri("prop", e[0]), rdfs.Range, iri("Class", e[2])))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = closure.RDFSCl(g).Len()
	}
	b.ReportMetric(float64(n), "triples")
}
