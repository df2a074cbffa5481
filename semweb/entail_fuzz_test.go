package semweb

import (
	"context"
	"testing"

	"semwebdb/internal/entail"
	"semwebdb/internal/graph"
	"semwebdb/internal/mt"
	"semwebdb/internal/rdfs"
)

// fuzzTerms is the fixed term set FuzzEntailmentAgrees draws from:
// plain IRIs, two blanks, the rdfs vocabulary (usable in any position)
// and one IRI that carries the skolem prefix without being a skolem
// constant.
var fuzzTerms = append([]Term{
	IRI("urn:a"), IRI("urn:b"), IRI("urn:p"), Blank("x"), Blank("y"),
	IRI(graph.SkolemPrefix + "x"),
}, rdfs.Vocabulary()...)

// FuzzEntailmentAgrees is the differential fuzz target for G ⊨ H: the
// one-shot entail.EntailsCtx (RDFS-cl(G) plus one map search), DB.Entails
// over the prepared cl(D) of Open(WithGraph(G)), DB.Entails over the
// delta-maintained cl(D) of a database that received G as two Add
// batches with a warm Entails between them, and the canonical-model
// decision mt.CanonicalEntails must agree.
//
// Input layout: data[0] mod 9 is the number of triples of G, and every
// following 3-byte group is one triple whose positions index fuzzTerms;
// the first groups fill G, at most the next 8 fill H. The first half of
// G's triples (rounded down) is the first batch, the rest the second.
// Ill-formed combinations are dropped by NewGraph. The seeds under
// testdata/fuzz/FuzzEntailmentAgrees run in plain go test.
func FuzzEntailmentAgrees(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := int(data[0]) % 9
		var gts, hts []Triple
		for i := 1; i+2 < len(data); i += 3 {
			tr := T(fuzzTerms[int(data[i])%len(fuzzTerms)],
				fuzzTerms[int(data[i+1])%len(fuzzTerms)],
				fuzzTerms[int(data[i+2])%len(fuzzTerms)])
			switch {
			case len(gts) < n:
				gts = append(gts, tr)
			case len(hts) < 8:
				hts = append(hts, tr)
			}
		}
		g, h := NewGraph(gts...), NewGraph(hts...)
		ctx := context.Background()

		want := mt.CanonicalEntails(g, h)
		if got, err := entail.EntailsCtx(ctx, g, h); err != nil || got != want {
			t.Fatalf("entail.EntailsCtx = %v (%v), canonical model says %v\nG:\n%v\nH:\n%v", got, err, want, g, h)
		}
		db, err := Open(WithGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if got, err := db.Entails(ctx, h); err != nil || got != want {
			t.Fatalf("DB.Entails = %v (%v), canonical model says %v\nG:\n%v\nH:\n%v", got, err, want, g, h)
		}

		first, second := NewGraph(gts[:len(gts)/2]...), NewGraph(gts[len(gts)/2:]...)
		inc, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer inc.Close()
		if err := inc.AddGraph(first); err != nil {
			t.Fatal(err)
		}
		if got, err := inc.Entails(ctx, h); err != nil || got != mt.CanonicalEntails(first, h) {
			t.Fatalf("DB.Entails over the first batch = %v (%v)\nG1:\n%v\nH:\n%v", got, err, first, h)
		}
		if err := inc.AddGraph(second); err != nil {
			t.Fatal(err)
		}
		if got, err := inc.Entails(ctx, h); err != nil || got != want {
			t.Fatalf("DB.Entails after a delta fold = %v (%v), canonical model says %v\nG1:\n%v\nG2:\n%v\nH:\n%v", got, err, want, first, second, h)
		}
	})
}
