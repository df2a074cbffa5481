package closure

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/rdfs"
)

// splitRandom partitions the triples of g into a base graph and a batch
// graph (sharing g's dictionary), putting each triple in the batch with
// the given probability.
func splitRandom(rng *rand.Rand, g *graph.Graph, pBatch float64) (*graph.Graph, *graph.Graph) {
	base := graph.NewWithDict(g.Dict())
	batch := graph.NewWithDict(g.Dict())
	g.EachID(func(t dict.Triple3) bool {
		if rng.Float64() < pBatch {
			batch.AddID(t)
		} else {
			base.AddID(t)
		}
		return true
	})
	return base, batch
}

// extend folds batch into the RDFS-closed base the way the database's
// prepared cache does: seed a Maintainer, Apply the batch, and merge
// the journal into base's permutations.
func extend(t testing.TB, base, batch *graph.Graph) *graph.Graph {
	t.Helper()
	added, err := NewMaintainer(base).Apply(context.Background(), batchIDs(base, batch))
	if err != nil {
		t.Fatal(err)
	}
	return base.ExtendedByIDs(added)
}

// batchIDs encodes the batch against base's dictionary, re-interning
// every term of a batch with a dictionary of its own.
func batchIDs(base, batch *graph.Graph) []dict.Triple3 {
	d := base.Dict()
	var out []dict.Triple3
	batch.Each(func(t graph.Triple) bool {
		out = append(out, dict.Triple3{d.Intern(t.S), d.Intern(t.P), d.Intern(t.O)})
		return true
	})
	return out
}

// TestDeltaClosureEqualsFromScratch is the core acceptance property of
// incremental maintenance: for random graphs split into a base and an
// insert batch, saturating the base and folding the batch in by delta
// rounds yields exactly RDFS-cl(base ∪ batch), regardless of which
// triples land in the batch.
func TestDeltaClosureEqualsFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for round := 0; round < 60; round++ {
		var g *graph.Graph
		if round%2 == 0 {
			g = randClosureGraph(rng, 4+rng.Intn(10))
		} else {
			g = randVocabAsDataGraph(rng, 4+rng.Intn(10))
		}
		base, batch := splitRandom(rng, g, 0.3)
		want := RDFSCl(g)
		baseCl := RDFSCl(base)

		got := extend(t, baseCl, batch)
		if !got.Equal(want) {
			t.Fatalf("round %d: delta closure differs on\n%v\nbatch:\n%v\nonly-want: %v\nonly-got: %v",
				round, base, batch, want.Minus(got), got.Minus(want))
		}
	}
}

// TestDeltaClosureInsertionOrders: applying the same batch in different
// insertion orders and sub-batch splits through one Maintainer reaches
// the same fixpoint, and each Apply's journal is exactly the set
// difference it created (disjoint from the pre-Apply closure).
func TestDeltaClosureInsertionOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for round := 0; round < 40; round++ {
		g := randClosureGraph(rng, 5+rng.Intn(8))
		base, batch := splitRandom(rng, g, 0.4)
		want := RDFSCl(g)
		baseCl := RDFSCl(base)

		ids := batchIDs(baseCl, batch)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

		// Split the shuffled batch into 1..4 sub-batches applied in
		// sequence; the closure after the last must equal the closure of
		// the union, whatever the split points.
		m := NewMaintainer(baseCl)
		acc := baseCl
		for len(ids) > 0 {
			k := 1 + rng.Intn(len(ids))
			sub := ids[:k]
			ids = ids[k:]
			added, err := m.Apply(context.Background(), sub)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			for _, a := range added {
				if acc.HasID(a) {
					t.Fatalf("round %d: journal reports %v already present", round, a)
				}
			}
			acc = acc.ExtendedByIDs(added)
			if acc.Len() != m.Len() {
				t.Fatalf("round %d: extended graph (%d) and maintainer (%d) disagree on size",
					round, acc.Len(), m.Len())
			}
		}
		if !acc.Equal(want) {
			t.Fatalf("round %d: incremental batches reached wrong fixpoint\nonly-want: %v\nonly-got: %v",
				round, want.Minus(acc), acc.Minus(want))
		}
	}
}

// TestDeltaClosureEmptyBatch: folding in nothing adds nothing.
func TestDeltaClosureEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	g := randClosureGraph(rng, 8)
	baseCl := RDFSCl(g)
	m := NewMaintainer(baseCl)
	added, err := m.Apply(context.Background(), nil)
	if err != nil || len(added) != 0 {
		t.Fatalf("empty batch: added=%v err=%v", added, err)
	}
	// Re-inserting triples the closure already holds is also a no-op.
	added, err = m.Apply(context.Background(), batchIDs(baseCl, g))
	if err != nil || len(added) != 0 {
		t.Fatalf("duplicate batch: added=%v err=%v", added, err)
	}
	if got := extend(t, baseCl, graph.NewWithDict(baseCl.Dict())); !got.Equal(baseCl) {
		t.Fatal("empty delta changed the extended closure")
	}
}

// TestDeltaClEqualsClOfUnion covers cl (Definition 3.5) on ground
// graphs, the only ones maintained in place: a maintainer seeded from
// Cl(base) reaches Cl(base ∪ batch).
func TestDeltaClEqualsClOfUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for round := 0; round < 40; round++ {
		g := graph.New()
		randClosureGraph(rng, 6+rng.Intn(20)).Each(func(tr graph.Triple) bool {
			if tr.IsGround() {
				g.Add(tr)
			}
			return true
		})
		base, batch := splitRandom(rng, g, 0.35)
		want := Cl(g)
		got := extend(t, Cl(base), batch)
		if !got.Equal(want) {
			t.Fatalf("round %d: maintained cl differs from Cl of union\nonly-want: %v\nonly-got: %v",
				round, want.Minus(got), got.Minus(want))
		}
	}
}

// TestMaintainerPoisonedAfterCancel: an Apply aborted by its context
// reports the cancellation and poisons the maintainer for good.
func TestMaintainerPoisonedAfterCancel(t *testing.T) {
	baseCl := RDFSCl(scChain(40))
	m := NewMaintainer(baseCl)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	batch := graph.NewWithDict(baseCl.Dict())
	batch.Add(graph.T(iri("n1"), rdfs.SubClassOf, iri("fresh")))
	if _, err := m.Apply(dead, batchIDs(baseCl, batch)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Apply: err=%v, want context.Canceled", err)
	}
	if _, err := m.Apply(context.Background(), nil); err == nil {
		t.Fatal("poisoned maintainer accepted a later Apply")
	}
}

// TestDeltaClosureForeignDictBatch: a batch graph with its own private
// dictionary is re-interned against the base's.
func TestDeltaClosureForeignDictBatch(t *testing.T) {
	base := graph.New(
		graph.T(iri("c1"), rdfs.SubClassOf, iri("c2")),
		graph.T(iri("x"), rdfs.Type, iri("c1")),
	)
	baseCl := RDFSCl(base)
	batch := graph.New(graph.T(iri("c2"), rdfs.SubClassOf, iri("c3")))
	want := RDFSCl(graph.Union(base, batch))
	got := extend(t, baseCl, batch)
	if !got.Equal(want) {
		t.Fatalf("foreign-dict batch: wrong closure\nonly-want: %v\nonly-got: %v",
			want.Minus(got), got.Minus(want))
	}
	if !got.Has(graph.T(iri("x"), rdfs.Type, iri("c3"))) {
		t.Fatal("expected derived typing through the freshly inserted subclass edge")
	}
}

// TestDeltaClosureExtendedIndexesConsistent: the merged permutations of
// the extended result answer pattern scans exactly like a freshly
// sorted graph over the same set.
func TestDeltaClosureExtendedIndexesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for round := 0; round < 20; round++ {
		g := randClosureGraph(rng, 6+rng.Intn(6))
		base, batch := splitRandom(rng, g, 0.3)
		baseCl := RDFSCl(base)
		// Force all three permutations on the base so ExtendedByIDs
		// takes the merge path for each.
		for o := 0; o < 3; o++ {
			baseCl.Index(dict.Order(o))
		}
		got := extend(t, baseCl, batch)
		for o := 0; o < 3; o++ {
			fo := dict.Order(o)
			merged := got.Index(fo)
			rebuilt := graph.NewWithDict(got.Dict()).AddAll(got).Index(fo)
			if len(merged) != len(rebuilt) {
				t.Fatalf("round %d order %v: index sizes %d vs %d", round, fo, len(merged), len(rebuilt))
			}
			for i := range merged {
				if merged[i] != rebuilt[i] {
					t.Fatalf("round %d order %v: merged index diverges at %d: %v vs %v",
						round, fo, i, merged[i], rebuilt[i])
				}
			}
		}
	}
}
