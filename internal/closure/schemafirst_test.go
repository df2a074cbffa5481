package closure

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

// randSchemaFirstGraph draws a graph with rdfsV in predicate position
// only — the class RDFSCl saturates schema first — over IRI and blank
// properties (blank superproperties carry domains and ranges through
// sp chains), IRI and literal classes, and IRI, blank and literal
// individuals.
func randSchemaFirstGraph(rng *rand.Rand, n int) *graph.Graph {
	props := []term.Term{iri("p"), iri("q"), iri("r"), iri("s"), blk("bp")}
	classes := []term.Term{iri("A"), iri("B"), iri("C"), iri("D"), blk("bc"), term.NewLiteral("L")}
	nodes := []term.Term{iri("x"), iri("y"), iri("z"), blk("u"), term.NewLiteral("v"), iri("A"), iri("p")}
	pick := func(ts []term.Term) term.Term { return ts[rng.Intn(len(ts))] }
	g := graph.New()
	for g.Len() < n {
		var t graph.Triple
		switch rng.Intn(7) {
		case 0:
			t = graph.T(pick(props), rdfs.SubPropertyOf, pick(props))
		case 1:
			t = graph.T(pick(props), rdfs.Domain, pick(classes))
		case 2:
			t = graph.T(pick(props), rdfs.Range, pick(classes))
		case 3:
			t = graph.T(pick(classes), rdfs.SubClassOf, pick(classes))
		case 4:
			t = graph.T(pick(nodes), rdfs.Type, pick(classes))
		default:
			t = graph.T(pick(nodes), pick(props), pick(nodes))
		}
		g.Add(t) // ill-formed draws (literal subject, blank predicate) are rejected
	}
	return g
}

func genericCl(t testing.TB, g *graph.Graph) *graph.Graph {
	t.Helper()
	out, err := rdfsClSequential(context.Background(), g, lifoOrder, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSchemaFirstEqualsGenericAndNaive is the differential test of the
// schema-first path: on random rdfsV-free graphs it equals the generic
// engine and the round-based NaiveRDFSCl, triple for triple.
func TestSchemaFirstEqualsGenericAndNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 1500; round++ {
		g := randSchemaFirstGraph(rng, 1+rng.Intn(14))
		if rdfs.MentionsVocabularyOutsidePredicate(g) {
			t.Fatalf("round %d: generator left the schema-first class", round)
		}
		fast := RDFSCl(g)
		for _, ref := range []struct {
			name string
			cl   *graph.Graph
		}{{"generic", genericCl(t, g)}, {"naive", NaiveRDFSCl(g)}} {
			if !fast.Equal(ref.cl) {
				t.Fatalf("round %d: schema-first ≠ %s on\n%v\nonly-fast: %v\nonly-%s: %v",
					round, ref.name, g, fast.Minus(ref.cl), ref.name, ref.cl.Minus(fast))
			}
		}
	}
}

// TestSchemaFirstTakesFastPathOnlyWithoutVocabularyAsData pins which
// engine serves a full saturation, through the mode label of
// semweb_closure_saturations_total.
func TestSchemaFirstTakesFastPathOnlyWithoutVocabularyAsData(t *testing.T) {
	full, generic := satFull.Value(), satFullGeneric.Value()
	RDFSCl(randSchemaFirstGraph(rand.New(rand.NewSource(1)), 20))
	if satFull.Value() != full+1 || satFullGeneric.Value() != generic {
		t.Fatalf("rdfsV-free graph: full %d→%d, full_generic %d→%d; want +1, +0",
			full, satFull.Value(), generic, satFullGeneric.Value())
	}
	RDFSCl(graph.New(graph.T(iri("q"), rdfs.SubPropertyOf, rdfs.Type)))
	if satFull.Value() != full+1 || satFullGeneric.Value() != generic+1 {
		t.Fatalf("rdfsV as data: full %d→%d, full_generic %d→%d; want +0, +1",
			full+1, satFull.Value(), generic, satFullGeneric.Value())
	}
}

// artLike is a scaled-down harness dataset: an ArtSchema-shaped class
// tree and property chain with domains and ranges on every property.
func artLike(nInd int) *graph.Graph {
	rng := rand.New(rand.NewSource(5))
	class := func(i int) term.Term { return iri(fmt.Sprintf("Class%d", i)) }
	prop := func(i int) term.Term { return iri(fmt.Sprintf("prop%d", i)) }
	g := graph.New()
	for i := 1; i < 31; i++ {
		g.Add(graph.T(class(i), rdfs.SubClassOf, class((i-1)/2)))
	}
	for i := 0; i < 4; i++ {
		if i > 0 {
			g.Add(graph.T(prop(i), rdfs.SubPropertyOf, prop(i-1)))
		}
		g.Add(graph.T(prop(i), rdfs.Domain, class(2*i)))
		g.Add(graph.T(prop(i), rdfs.Range, class(2*i+1)))
	}
	for i := 0; i < nInd; i++ {
		ind := iri(fmt.Sprintf("ind%d", i))
		g.Add(graph.T(ind, rdfs.Type, class(rng.Intn(31))))
		g.Add(graph.T(ind, prop(rng.Intn(4)), iri(fmt.Sprintf("ind%d", rng.Intn(i+1)))))
	}
	return g
}

func TestSchemaFirstEqualsGenericOnArtSchema(t *testing.T) {
	g := artLike(3000)
	if fast, slow := RDFSCl(g), genericCl(t, g); !fast.Equal(slow) {
		t.Fatalf("schema-first ≠ generic: only-fast %d, only-generic %d triples",
			fast.Minus(slow).Len(), slow.Minus(fast).Len())
	}
}

// doneAfter is a context whose Done channel is open for the first n
// calls and closed from then on: the schema phase's engine run asks
// once, so n = 1 cancels the compiled instance pass itself.
type doneAfter struct {
	context.Context
	n      int
	closed chan struct{}
}

func (c *doneAfter) Done() <-chan struct{} {
	if c.n > 0 {
		c.n--
		return make(chan struct{})
	}
	return c.closed
}

func (c *doneAfter) Err() error {
	select {
	case <-c.closed:
		return context.Canceled
	default:
		return nil
	}
}

func TestSchemaFirstPassHonoursCancellation(t *testing.T) {
	g := artLike(3000)
	closed := make(chan struct{})
	close(closed)
	out, err := RDFSClCtx(&doneAfter{Context: context.Background(), n: 1, closed: closed}, g)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("cancelled instance pass: graph=%v err=%v, want no graph and context.Canceled", out != nil, err)
	}
	// Mid-pass deadlines: an error comes alone, a result is exact.
	want := genericCl(t, g)
	for trial := 0; trial < 6; trial++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(trial)*300*time.Microsecond)
		out, err := RDFSClCtx(ctx, g)
		cancel()
		switch {
		case err != nil:
			if out != nil || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("trial %d: graph=%v err=%v", trial, out != nil, err)
			}
		case !out.Equal(want):
			t.Fatalf("trial %d: uncancelled run produced a wrong closure", trial)
		}
	}
}
