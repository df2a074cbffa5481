package closure

import (
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// FuzzDeltaClosure is the differential fuzz target for incremental
// maintenance: arbitrary bytes decode into a random graph split into a
// base and an insert batch, and the delta-maintained closure of the
// saturated base must equal the from-scratch closure of the union,
// and on ground input — where cl (Definition 3.5) is RDFS-cl — the
// maintained Cl(base) must equal Cl of the union.
//
// Input layout: data[0] picks the base/batch split point, data[1] is
// unused (it once chose a worker count; the checked-in corpus keeps
// the layout), and every following 3-byte group is one triple whose
// positions index a small term vocabulary (ill-formed combinations are
// rejected by graph.Add, exactly as in production ingestion).
func FuzzDeltaClosure(f *testing.F) {
	f.Add([]byte("\x05\x03abcdefghijklmnopqr"))
	f.Add([]byte("\x00\x07ADGJMPSVY\x01\x02\x03"))
	f.Add([]byte("\xff\x01aaabbbcccdddeeefff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		terms := []term.Term{
			term.NewIRI("urn:a"), term.NewIRI("urn:b"), term.NewIRI("urn:c"),
			term.NewIRI("urn:p"), term.NewIRI("urn:q"),
			rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Type, rdfs.Domain, rdfs.Range,
			term.NewBlank("x"), term.NewBlank("y"),
			term.NewLiteral("lit"),
		}
		var ts []graph.Triple
		for i := 2; i+2 < len(data) && len(ts) < 40; i += 3 {
			ts = append(ts, graph.T(
				terms[int(data[i])%len(terms)],
				terms[int(data[i+1])%len(terms)],
				terms[int(data[i+2])%len(terms)],
			))
		}
		k := int(data[0]) % (len(ts) + 1)

		baseG := graph.New()
		for _, tr := range ts[:k] {
			baseG.Add(tr)
		}
		batchG := graph.NewWithDict(baseG.Dict())
		for _, tr := range ts[k:] {
			batchG.Add(tr)
		}
		union := graph.Union(baseG, batchG)

		want := RDFSCl(union)
		baseCl := RDFSCl(baseG)
		if got := extend(t, baseCl, batchG); !got.Equal(want) {
			t.Fatalf("delta closure != from-scratch closure\nbase:\n%v\nbatch:\n%v\nonly-want: %v\nonly-got: %v",
				baseG, batchG, want.Minus(got), got.Minus(want))
		}

		if !union.IsGround() {
			return
		}
		wantCl := Cl(union)
		if got := extend(t, Cl(baseG), batchG); !got.Equal(wantCl) {
			t.Fatalf("maintained cl != Cl of union\nonly-want: %v\nonly-got: %v",
				wantCl.Minus(got), got.Minus(wantCl))
		}
	})
}
