// Tests for the paper operations on DB — Entails, Infers, Closure,
// NormalForm, Fingerprint, Equivalent — which read the prepared
// cl(D)/nf(D) the query path caches: they must agree with the
// package-level from-scratch functions through delta maintenance,
// fallbacks and compaction, hand out results the caller may mutate, and
// share the cache instead of re-saturating.
package semweb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"semwebdb/internal/closure"
	"semwebdb/internal/entail"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
)

// blankTriples returns n random triples whose subjects and objects are
// drawn from a few blank nodes as well as the vocabulary's nodes and
// classes, so the database stops being ground, plus a redundant blank
// triple (_:r maps onto n1), so nf(D) is a proper subgraph of cl(D).
func (v deltaVocab) blankTriples(n int) []Triple {
	r := v.rng
	pick := func(iri Term) Term {
		if r.Intn(2) == 0 {
			return Blank(fmt.Sprintf("b%d", r.Intn(3)))
		}
		return iri
	}
	ts := make([]Triple, n)
	for i := range ts {
		if r.Intn(2) == 0 {
			ts[i] = T(pick(v.node(r.Intn(40))), Type, pick(v.cls(r.Intn(12))))
		} else {
			ts[i] = T(pick(v.node(r.Intn(40))), v.prop(r.Intn(8)), pick(v.node(r.Intn(40))))
		}
	}
	return append(ts, T(v.node(1), v.prop(0), v.node(0)), T(Blank("r"), v.prop(0), v.node(0)))
}

// simpleTriples returns n random triples mentioning no RDFS vocabulary.
func (v deltaVocab) simpleTriples(n int) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = T(v.node(v.rng.Intn(40)), v.prop(v.rng.Intn(8)), v.node(v.rng.Intn(40)))
	}
	return ts
}

// paperProbes returns candidate triples for Infers and one-triple
// Entails: members of cl (positive cases), blank-bearing members of cl
// that nf retracts, random vocabulary triples, reflexive-vocabulary
// triples, blank-bearing triples, triples over unknown terms and
// ill-formed ones.
func paperProbes(v deltaVocab, cl, nf *Graph) []Triple {
	r := v.rng
	members := cl.Triples()
	var ts []Triple
	for i := 0; i < 3 && len(members) > 0; i++ {
		ts = append(ts, members[r.Intn(len(members))])
	}
	retracted := 0
	for _, m := range members {
		if !m.IsGround() && !nf.Has(m) && retracted < 3 {
			ts = append(ts, m)
			retracted++
		}
	}
	ts = append(ts, v.triples(4)...)
	k := r.Intn(40)
	return append(ts,
		T(SubPropertyOf, SubPropertyOf, SubPropertyOf),
		T(Type, SubPropertyOf, Type),
		T(Domain, SubPropertyOf, Domain),
		T(SubClassOf, SubClassOf, SubClassOf),
		T(v.prop(k), SubPropertyOf, v.prop(k)),
		T(v.cls(k), SubClassOf, v.cls(k)),
		T(Blank("b0"), Type, v.cls(k)),
		T(v.node(k), v.prop(k), Blank("b1")),
		T(IRI("urn:unknown:s"), v.prop(k), v.node(k)),
		T(v.node(k), IRI("urn:unknown:p"), v.node(k)),
		T(Literal("lit"), v.prop(k), v.node(k)),
		T(v.node(k), Blank("b0"), v.node(k)),
	)
}

// paperGraphs returns candidate graphs h for Entails and Equivalent:
// blank patterns, a blanked-out sample of cl (entailed), D itself and
// nf(D) (both equivalent to D), and D plus one fresh triple.
func paperGraphs(v deltaVocab, d, cl, nf *Graph) []*Graph {
	r := v.rng
	x, y, z := Blank("x"), Blank("y"), Blank("z")
	k := r.Intn(40)
	hs := []*Graph{
		NewGraph(T(x, Type, y)),
		NewGraph(T(x, v.prop(k), y), T(y, v.prop(k+1), z)),
		NewGraph(T(x, SubClassOf, x)),
		NewGraph(T(x, SubPropertyOf, x), T(v.node(k), x, v.node(k+1))),
	}
	// Replace the subjects of a few closure triples by one blank: still
	// entailed whenever the sample shares its subject, often otherwise.
	members := cl.Triples()
	sample := NewGraph()
	for i := 0; i < 3 && len(members) > 0; i++ {
		m := members[r.Intn(len(members))]
		sample.Add(T(x, m.P, m.O))
	}
	extra := d.Clone()
	extra.Add(T(IRI("urn:unknown:s"), v.prop(k), v.node(k)))
	return append(hs, sample, d, nf, extra)
}

// checkPaperOps compares every paper operation on db with the
// from-scratch functions over db.Graph().
func checkPaperOps(t *testing.T, db *DB, v deltaVocab, step string) {
	t.Helper()
	ctx := context.Background()
	g := db.Graph()
	wantCl, err := Closure(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	wantNF, err := NormalForm(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := Fingerprint(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	mem := closure.NewMembership(g)

	cl, err := db.Closure(ctx)
	if err != nil || !cl.Equal(wantCl) {
		t.Fatalf("%s: Closure (%v) differs from cl(D)", step, err)
	}
	nf, err := db.NormalForm(ctx)
	if err != nil || !Isomorphic(nf, wantNF) {
		t.Fatalf("%s: NormalForm (%v) not isomorphic to nf(D)", step, err)
	}
	if fp, err := db.Fingerprint(ctx); err != nil || fp != wantFP {
		t.Fatalf("%s: Fingerprint (%v) differs from the from-scratch one", step, err)
	}

	// The from-scratch D ⊨ · decision: RDFS-cl(D) plus one map search.
	checkEntails := func(h *Graph) {
		t.Helper()
		want, err := entail.EntailsCtx(ctx, g, h)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := db.Entails(ctx, h); err != nil || got != want {
			t.Fatalf("%s: Entails(%v) = %v (%v), want %v", step, h.Triples(), got, err, want)
		}
		if want { // D ≡ h iff also h ⊨ D
			if want, err = Entails(ctx, h, g); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := db.Equivalent(ctx, h); err != nil || got != want {
			t.Fatalf("%s: Equivalent(%d triples) = %v (%v), want %v", step, h.Len(), got, err, want)
		}
	}
	for _, tr := range paperProbes(v, wantCl, wantNF) {
		want := wantCl.Has(tr)
		if mem.Contains(tr) != want {
			t.Fatalf("%s: oracles disagree on %v", step, tr)
		}
		if got := db.Infers(tr); got != want {
			t.Fatalf("%s: Infers(%v) = %v, want %v", step, tr, got, want)
		}
		if tr.WellFormed() {
			checkEntails(NewGraph(tr))
		}
	}
	for _, h := range paperGraphs(v, g, wantCl, wantNF) {
		checkEntails(h)
	}
}

// checkNFAnswers compares Eval over db's nf(D), which matches against
// cl(D)'s index hiding the blanks the core drops, with Eval on a fresh
// database seeded with a copy of nf(D), whose universe is that copy:
// a projecting head and a blank head, each under both semantics, and a
// premised query whose premise holds a blank, against nf(D + P).
func checkNFAnswers(t *testing.T, db *DB, v deltaVocab, step string) {
	t.Helper()
	ctx := context.Background()
	nf, err := db.NormalForm(ctx)
	if err != nil {
		t.Fatal(err)
	}
	X, Y, P, C := Var("X"), Var("Y"), Var("P"), Var("C")
	queries := []*Query{
		NewQuery().Head(T(X, IRI("urn:q:in"), C)).Body(T(X, P, Y), T(X, Type, C)),
		NewQuery().Head(T(Blank("n"), IRI("urn:q:of"), X), T(Blank("n"), IRI("urn:q:cls"), C)).Body(T(X, Type, C)),
	}
	premise := NewGraph(T(Blank("prem"), Type, v.cls(3)), T(Blank("prem"), v.prop(0), v.node(0)))
	for _, sem := range []Semantics{Union, Merge} {
		for i, q := range queries {
			q.Under(sem)
			got, err := db.Eval(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want := evalFresh(t, nf, q)
			if got.NTriples() != want.NTriples() {
				t.Fatalf("%s: query %d under %v: nf view answers\n%s\nfresh nf(D) answers\n%s", step, i, sem, got.NTriples(), want.NTriples())
			}
			// A blank premise: nf(D + P) is computed per query, as a view too.
			got, err = db.Eval(ctx, NewQuery().Head(q.HeadPatterns()...).Body(q.BodyPatterns()...).WithPremise(premise).Under(sem))
			if err != nil {
				t.Fatal(err)
			}
			nfDP, err := NormalForm(ctx, GraphMerge(db.Graph(), premise))
			if err != nil {
				t.Fatal(err)
			}
			if want := evalFresh(t, nfDP, q); !Isomorphic(got.Graph(), want.Graph()) {
				t.Fatalf("%s: premised query %d under %v: nf view answers\n%s\nfresh nf(D + P) answers\n%s", step, i, sem, got.NTriples(), want.NTriples())
			}
		}
	}
}

// evalFresh evaluates q on a fresh database seeded with g.
func evalFresh(t *testing.T, g *Graph, q *Query) *Answer {
	t.Helper()
	fresh, err := Open(WithGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	ans, err := fresh.Eval(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestPaperOpsMatchFromScratch is the differential test: along a run of
// ground batches, a blank-node batch and a ground batch on the now
// non-ground base (each folded into cl(D) by delta, the last two
// discarding nf(D)) and a Compact (which drops the cache), every paper
// operation agrees with the from-scratch functions, under both
// matching universes and on a simple database. Under nf(D), Eval also
// agrees with a fresh database seeded with nf(D) (checkNFAnswers).
func TestPaperOpsMatchFromScratch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		simple bool
	}{
		{name: "nf"},
		{name: "without-nf", opts: []Option{WithoutNormalForm()}},
		{name: "simple", simple: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				v := deltaVocab{rand.New(rand.NewSource(seed))}
				ground := v.triples
				if tc.simple {
					ground = v.simpleTriples
				}
				db, err := Open(tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				step := func(name string, mutate func() error) {
					t.Helper()
					if err := mutate(); err != nil {
						t.Fatal(err)
					}
					checkPaperOps(t, db, v, fmt.Sprintf("seed %d, %s", seed, name))
					if len(tc.opts) == 0 {
						checkNFAnswers(t, db, v, fmt.Sprintf("seed %d, %s", seed, name))
					}
				}
				step("ground base", func() error { return db.Add(ground(40)...) })
				for i := 0; i < 3; i++ {
					step(fmt.Sprintf("ground batch %d", i), func() error { return db.Add(ground(1 + v.rng.Intn(6))...) })
				}
				step("blank batch", func() error { return db.Add(v.blankTriples(2)...) })
				step("ground batch on blank base", func() error { return db.Add(ground(3)...) })
				step("compact", db.Compact)

				st := db.Stats()
				if st.PreparedDelta != 5 || st.PreparedFallbackNonGroundBatch == 0 ||
					st.PreparedFallbackNonGroundBase == 0 || st.PreparedFallbackCompact == 0 {
					t.Fatalf("seed %d: paths not all exercised: %+v", seed, st)
				}
				if st.PreparedFull != 2 {
					t.Fatalf("seed %d: PreparedFull = %d, want 2 (one saturation before Compact, one after)", seed, st.PreparedFull)
				}
				db.Close()
			}
		})
	}
}

// TestPaperOpsResultsAreIndependent: the graphs Closure and NormalForm
// return are the caller's. Writing to them — on a fully prepared
// universe and on a delta-extended one — changes no later result, no
// Eval answer and no dictionary count.
func TestPaperOpsResultsAreIndependent(t *testing.T) {
	ctx := context.Background()
	v := deltaVocab{rand.New(rand.NewSource(5))}
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Add(v.triples(80)...); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if round == 1 { // the next universe is a delta extension
			if err := db.Add(T(v.node(1), Type, v.cls(2))); err != nil {
				t.Fatal(err)
			}
		}
		ans, err := db.Eval(ctx, typeQuery())
		if err != nil {
			t.Fatal(err)
		}
		wantAns, terms := ans.NTriples(), db.Stats().DictTerms
		cl, err := db.Closure(ctx)
		if err != nil {
			t.Fatal(err)
		}
		nf, err := db.NormalForm(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantCl, wantNF := cl.String(), nf.String()

		added := T(IRI("urn:fresh:s"), Type, IRI("urn:fresh:C"))
		removed := cl.Triples()[0]
		for _, h := range []*Graph{cl, nf} {
			h.Add(added)
			h.Remove(removed)
		}

		if got, err := db.Closure(ctx); err != nil || got.String() != wantCl {
			t.Fatalf("round %d: Closure changed after writing to an earlier result (%v)", round, err)
		}
		if got, err := db.NormalForm(ctx); err != nil || got.String() != wantNF {
			t.Fatalf("round %d: NormalForm changed after writing to an earlier result (%v)", round, err)
		}
		if db.Infers(added) || !db.Infers(removed) {
			t.Fatalf("round %d: Infers sees writes to a Closure result", round)
		}
		ans, err = db.Eval(ctx, typeQuery())
		if err != nil {
			t.Fatal(err)
		}
		if ans.NTriples() != wantAns {
			t.Fatalf("round %d: Eval answer changed after writing to Closure/NormalForm results", round)
		}
		if got := db.Stats().DictTerms; got != terms {
			t.Fatalf("round %d: DictTerms %d -> %d", round, terms, got)
		}
	}
}

// TestPaperOpsShareThePreparedUniverse pins the counters: a ground or
// non-ground database saturates one cl(D) for both flags and every
// operation (nf(D) is cl(D), or a view of its graph hiding the blanks
// the core drops); once warm, paper operations on an unchanged database
// prepare and saturate nothing, observe no query latency and
// canonicalise nf(D) no more, and after a one-triple ground write the
// next Infers folds it in by one delta pass.
func TestPaperOpsShareThePreparedUniverse(t *testing.T) {
	ctx := context.Background()
	const fullSaturations = `semweb_closure_saturations_total{mode="full"}`
	for _, tc := range []struct {
		name  string
		blank bool
	}{{name: "ground"}, {name: "non-ground", blank: true}} {
		t.Run(tc.name, func(t *testing.T) {
			v := deltaVocab{rand.New(rand.NewSource(9))}
			db, err := Open()
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			ts := v.triples(60)
			if tc.blank {
				ts = append(ts, v.blankTriples(3)...)
			}
			if err := db.Add(ts...); err != nil {
				t.Fatal(err)
			}
			probe := T(v.node(3), Type, v.cls(4))
			h := NewGraph(T(Blank("x"), Type, v.cls(4)))
			// The five operations that read cl(D)/nf(D) and nothing else;
			// Equivalent also saturates h, so it is counted apart.
			ops := func() {
				t.Helper()
				if _, err := db.Entails(ctx, h); err != nil {
					t.Fatal(err)
				}
				db.Infers(probe)
				if _, err := db.Closure(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := db.NormalForm(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Fingerprint(ctx); err != nil {
					t.Fatal(err)
				}
			}
			// cl-only operations never pay for a core; a ground
			// database holds one universe for everything.
			satStart := scrapeSamples(t)[fullSaturations]
			if _, err := db.Entails(ctx, h); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Closure(ctx); err != nil {
				t.Fatal(err)
			}
			db.mu.RLock()
			nf := db.nf
			db.mu.RUnlock()
			if tc.blank && nf != nil {
				t.Fatal("a cl-only operation computed nf(D) on a non-ground database")
			}
			evalBothFlags(t, db)
			ops()
			if n := db.Stats().PreparedFull; n != 1 {
				t.Fatalf("PreparedFull = %d after warming both flags and every operation, want 1", n)
			}
			if sat := scrapeSamples(t)[fullSaturations] - satStart; sat != 1 {
				t.Fatalf("warming both flags and every operation ran %v full saturations, want 1", sat)
			}
			before, satBefore := db.Stats(), scrapeSamples(t)[fullSaturations]
			queriesBefore := querySecondsFull.Count() + querySecondsCached.Count() + querySecondsDelta.Count()
			for i := 0; i < 100; i++ {
				ops()
			}
			if sat := scrapeSamples(t)[fullSaturations]; sat != satBefore {
				t.Fatalf("unchanged DB: %v full saturations over 100 rounds, want 0", sat-satBefore)
			}
			for i := 0; i < 100; i++ {
				if _, err := db.Equivalent(ctx, h); err != nil {
					t.Fatal(err)
				}
			}
			after := db.Stats()
			if after.PreparedFull != before.PreparedFull || after.PreparedDelta != before.PreparedDelta {
				t.Fatalf("unchanged DB: prepared full %d -> %d, delta %d -> %d",
					before.PreparedFull, after.PreparedFull, before.PreparedDelta, after.PreparedDelta)
			}
			if got := querySecondsFull.Count() + querySecondsCached.Count() + querySecondsDelta.Count(); got != queriesBefore {
				t.Fatalf("paper operations observed %d query latencies", got-queriesBefore)
			}
			// One canonicalisation per prepared state: it alone costs
			// thousands of allocations.
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := db.Fingerprint(ctx); err != nil {
					t.Fatal(err)
				}
			}); allocs > 1 {
				t.Fatalf("Fingerprint on an unchanged DB: %v allocs per call, want it cached", allocs)
			}
			if tc.blank {
				// nf(D) is cl(D)'s own graph and index hiding the gone
				// blanks: no second graph, no second index.
				db.mu.RLock()
				cl, nf := db.cl, db.nf
				db.mu.RUnlock()
				if nf == nil || nf == cl || nf.ix.Graph() != cl.ix.Graph() {
					t.Fatal("nf(D) of a non-ground database is not a view of cl(D)'s graph")
				}
			}

			fresh := T(v.node(200), Type, v.cls(200))
			if err := db.Add(fresh); err != nil {
				t.Fatal(err)
			}
			if !db.Infers(fresh) {
				t.Fatal("Infers misses a freshly added triple")
			}
			if st := db.Stats(); st.PreparedDelta != after.PreparedDelta+1 || st.PreparedFull != after.PreparedFull {
				t.Fatalf("after a 1-triple Add, Infers: delta %d -> %d, full %d -> %d; want +1 and +0",
					after.PreparedDelta, st.PreparedDelta, after.PreparedFull, st.PreparedFull)
			}
		})
	}
}

// TestEquivalentKeepsArgumentDictionary: Equivalent's h ⊨ D half
// encodes D against h's closure, and Prove maps D's terms into h's
// derivation, which must both happen on an overlay — the caller's h
// gains no terms from D or from the RDFS vocabulary. The package-level
// operations keep the same rule for their arguments: given a
// db.Graph() copy, which shares the database dictionary, none of them
// may grow Stats().DictTerms.
func TestEquivalentKeepsArgumentDictionary(t *testing.T) {
	v := deltaVocab{rand.New(rand.NewSource(3))}
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ts := v.simpleTriples(50)
	if err := db.Add(ts...); err != nil {
		t.Fatal(err)
	}
	h := NewGraph(ts[0]) // entailed, so both halves run
	before := h.Dict().Len()
	if ok, err := db.Equivalent(context.Background(), h); err != nil || ok {
		t.Fatalf("Equivalent = %v (%v), want false", ok, err)
	}
	if got := h.Dict().Len(); got != before {
		t.Fatalf("Equivalent grew h's dictionary %d -> %d", before, got)
	}
	// Prove's derivation instantiates h's blank with D's subject.
	h = NewGraph(T(Blank("x"), ts[0].P, ts[0].O))
	before = h.Dict().Len()
	if _, ok := db.Prove(h); !ok {
		t.Fatal("Prove found no derivation of an entailed graph")
	}
	if got := h.Dict().Len(); got != before {
		t.Fatalf("Prove grew h's dictionary %d -> %d", before, got)
	}

	ctx := context.Background()
	hb := NewGraph(T(Blank("w"), ts[0].P, ts[0].O))
	for _, op := range []struct {
		name string
		run  func(g *Graph) error
	}{
		{"Closure", func(g *Graph) error { _, err := Closure(ctx, g); return err }},
		{"NormalForm", func(g *Graph) error { _, err := NormalForm(ctx, g); return err }},
		{"Fingerprint", func(g *Graph) error { _, err := Fingerprint(ctx, g); return err }},
		{"SameNormalForm", func(g *Graph) error { _, err := SameNormalForm(ctx, g, hb); return err }},
		{"Prove", func(g *Graph) error { Prove(g, hb); Prove(hb, g); return nil }},
		{"Entails", func(g *Graph) error { _, err := Entails(ctx, g, hb); return err }},
		{"Equivalent", func(g *Graph) error { _, err := Equivalent(ctx, g, hb); return err }},
		{"FindMap", func(g *Graph) error { FindMap(hb, g); return nil }},
		{"Canonicalize", func(g *Graph) error { Canonicalize(g); return nil }},
		{"CoreOf", func(g *Graph) error { _, err := CoreOf(ctx, g); return err }},
		{"IsLean", func(g *Graph) error { _, err := IsLean(ctx, g); return err }},
		{"Isomorphic", func(g *Graph) error {
			if !Isomorphic(g, NewGraph(ts[1], T(Blank("z"), ts[0].P, ts[0].O))) {
				return fmt.Errorf("a blank renaming is not isomorphic")
			}
			return nil
		}},
		{"MinimalRepresentation", func(g *Graph) error { MinimalRepresentation(g); return nil }},
	} {
		// A fresh two-triple database per operation, so no earlier
		// operation's growth can mask this one's.
		db, err := Open(WithGraph(NewGraph(ts[1], T(Blank("b"), ts[0].P, ts[0].O))))
		if err != nil {
			t.Fatal(err)
		}
		before := db.Stats().DictTerms
		if err := op.run(db.Graph()); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if got := db.Stats().DictTerms; got != before {
			t.Errorf("%s grew the database dictionary of its db.Graph() argument %d -> %d", op.name, before, got)
		}
		db.Close()
	}
}

// TestEquivalentReadsOneSnapshot: both halves of D ≡ h read the
// snapshot the prepared cl(D) covers, even when a commit lands between
// resolving the universe and the h ⊨ D half.
func TestEquivalentReadsOneSnapshot(t *testing.T) {
	ctx := context.Background()
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	d0 := []Triple{
		T(IRI("urn:e:a"), SubClassOf, IRI("urn:e:b")),
		T(IRI("urn:e:x"), Type, IRI("urn:e:a")),
	}
	if err := db.Add(d0...); err != nil {
		t.Fatal(err)
	}
	st, _, err := db.universe(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	// A commit h does not entail overtakes the resolved universe.
	if err := db.Add(T(IRI("urn:e:y"), Type, IRI("urn:e:c"))); err != nil {
		t.Fatal(err)
	}
	h := NewGraph(d0...)
	if ok, err := equivalentIn(ctx, st, h); err != nil || !ok {
		t.Fatalf("D ≡ h over the resolved snapshot = %v (%v), want true", ok, err)
	}
	if ok, err := db.Equivalent(ctx, h); err != nil || ok {
		t.Fatalf("D ≡ h over the current snapshot = %v (%v), want false", ok, err)
	}
}

// BenchmarkDBOps times the paper operations against a cached Eval on a
// ground ArtSchema database (~10k triples, |cl| ≈ 4|D|): once warm,
// each reads the prepared universe instead of re-saturating D.
// equivalent decides D ≡ D against a copy of D, whose h ⊨ D half
// saturates that copy. infers_after_write adds one fresh ground triple
// per iteration (untimed) and times the Infers that folds it in.
// entails_after_write_nonground adds one blank triple first, then
// times one ground write plus the Entails that folds it into the
// now non-ground cl(D). normalform_after_write_nonground times one
// ground write plus the NormalForm that re-cores the folded cl(D), and
// islean_nonground the leanness test of the non-lean D.
func BenchmarkDBOps(b *testing.B) {
	ctx := context.Background()
	db, err := Open(WithGraph(gen.ArtSchema(63, 4, 5000, 42)))
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ind := func(i int) Term { return IRI(fmt.Sprintf("urn:semwebdb:ind:%d", i)) }
	X := Var("X")
	q := NewQuery().Head(T(ind(7), IRI("urn:q:isa"), X)).Body(T(ind(7), Type, X))
	fact := T(ind(7), Type, IRI("urn:semwebdb:Class:0")) // derived via the class tree
	h := NewGraph(fact)
	if _, err := db.Eval(ctx, q); err != nil { // warm: the one full prepare
		b.Fatal(err)
	}
	run := func(name string, op func() error) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("eval_cached", func() error { _, err := db.Eval(ctx, q); return err })
	run("entails_1triple", func() error { _, err := db.Entails(ctx, h); return err })
	run("infers_unchanged", func() error {
		if !db.Infers(fact) {
			return fmt.Errorf("fact not inferred")
		}
		return nil
	})
	run("closure", func() error { _, err := db.Closure(ctx); return err })
	run("normalform", func() error { _, err := db.NormalForm(ctx); return err })
	run("fingerprint", func() error { _, err := db.Fingerprint(ctx); return err })
	self := db.Graph()
	run("equivalent", func() error {
		if ok, err := db.Equivalent(ctx, self); err != nil || !ok {
			return fmt.Errorf("D ≢ D (%v)", err)
		}
		return nil
	})
	n := 0
	b.Run("infers_after_write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			n++
			fresh := T(IRI(fmt.Sprintf("urn:bench:new:%d", n)), Type, IRI("urn:semwebdb:Class:9"))
			if err := db.Add(fresh); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if !db.Infers(fresh) {
				b.Fatal("fresh triple not inferred")
			}
		}
	})
	if err := db.Add(T(Blank("anon"), Type, IRI("urn:semwebdb:Class:9"))); err != nil {
		b.Fatal(err)
	}
	run("entails_after_write_nonground", func() error {
		n++
		if err := db.Add(T(IRI(fmt.Sprintf("urn:bench:new:%d", n)), Type, IRI("urn:semwebdb:Class:9"))); err != nil {
			return err
		}
		if ok, err := db.Entails(ctx, h); err != nil || !ok {
			return fmt.Errorf("fact not entailed (%v)", err)
		}
		return nil
	})
	run("normalform_after_write_nonground", func() error {
		n++
		if err := db.Add(T(IRI(fmt.Sprintf("urn:bench:new:%d", n)), Type, IRI("urn:semwebdb:Class:9"))); err != nil {
			return err
		}
		_, err := db.NormalForm(ctx)
		return err
	})
	run("islean_nonground", func() error {
		if lean, err := db.IsLean(ctx); err != nil || lean {
			return fmt.Errorf("IsLean = %v (%v), want false: _:anon maps onto a typed individual", lean, err)
		}
		return nil
	})
}

// TestSkolemPrefixedIRIsStayIRIs: an IRI that merely carries the skolem
// prefix is an ordinary IRI of D. cl(D) is RDFS-cl(D) itself, so on a
// ground or non-ground database, under either matching universe,
// Closure keeps D's asserted triple, Infers and Entails accept it, Eval
// answers with the IRI, and no blank node takes its place — and the
// package-level Closure agrees.
func TestSkolemPrefixedIRIsStayIRIs(t *testing.T) {
	ctx := context.Background()
	sk, q, o := IRI(graph.SkolemPrefix+"x"), IRI("urn:q"), IRI("urn:o")
	asserted, impostor := T(sk, q, o), T(Blank("x"), q, o)
	for _, ground := range []bool{true, false} {
		first := T(IRI("urn:y"), IRI("urn:p"), o)
		if !ground {
			first = T(Blank("y"), IRI("urn:p"), o)
		}
		g := NewGraph(first, asserted)
		for _, opts := range [][]Option{nil, {WithoutNormalForm()}} {
			name := fmt.Sprintf("ground=%v/options=%d", ground, len(opts))
			db, err := Open(append([]Option{WithGraph(g)}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := db.Closure(ctx)
			if err != nil || !cl.Has(asserted) || cl.Has(impostor) {
				t.Errorf("%s: Closure (%v) has asserted %v, impostor %v", name, err, cl.Has(asserted), cl.Has(impostor))
			}
			if !db.Infers(asserted) {
				t.Errorf("%s: Infers of an asserted triple is false", name)
			}
			if ok, err := db.Entails(ctx, NewGraph(asserted)); err != nil || !ok {
				t.Errorf("%s: Entails of an asserted triple = %v (%v)", name, ok, err)
			}
			X, Y := Var("X"), Var("Y")
			ans, err := db.Eval(ctx, NewQuery().Head(T(X, q, Y)).Body(T(X, q, Y)))
			if err != nil {
				t.Fatalf("%s: Eval: %v", name, err)
			}
			if !ans.Graph().Has(asserted) || ans.Graph().Has(impostor) {
				t.Errorf("%s: Eval answered\n%v", name, ans.NTriples())
			}
			db.Close()
		}
		cl, err := Closure(ctx, g)
		if err != nil || !cl.Has(asserted) || cl.Has(impostor) {
			t.Errorf("ground=%v: package-level Closure (%v) has asserted %v, impostor %v", ground, err, cl.Has(asserted), cl.Has(impostor))
		}
	}
}
