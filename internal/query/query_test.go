package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"semwebdb/internal/entail"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }
func v(s string) term.Term   { return term.NewVar(s) }

func eval(t *testing.T, q *Query, d *graph.Graph, opts Options) *Answer {
	t.Helper()
	a, err := Evaluate(q, d, opts)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return a
}

func TestBasicSelection(t *testing.T) {
	d := graph.New(
		graph.T(iri("tom"), iri("son"), iri("mary")),
		graph.T(iri("ann"), iri("son"), iri("mary")),
		graph.T(iri("bob"), iri("son"), iri("jane")),
	)
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("childOf"), O: iri("mary")}},
		[]graph.Triple{{S: v("X"), P: iri("son"), O: iri("mary")}},
	)
	a := eval(t, q, d, Options{})
	if len(a.Singles) != 2 {
		t.Fatalf("singles = %d, want 2", len(a.Singles))
	}
	if !a.Graph.Has(graph.T(iri("tom"), iri("childOf"), iri("mary"))) ||
		!a.Graph.Has(graph.T(iri("ann"), iri("childOf"), iri("mary"))) {
		t.Fatalf("answer graph wrong:\n%v", a.Graph)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []*Query{
		// Head variable not in body.
		New(
			[]graph.Triple{{S: v("Y"), P: iri("p"), O: iri("a")}},
			[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("a")}},
		),
		// Blank in body.
		New(
			[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("a")}},
			[]graph.Triple{{S: v("X"), P: iri("p"), O: blk("n")}},
		),
		// Constraint variable not in head.
		New(
			[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("a")}},
			[]graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}},
		).WithConstraints(v("Y")),
		// Premise with a variable.
		func() *Query {
			q := New(
				[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("a")}},
				[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("a")}},
			)
			p := graph.New()
			// sneak a variable triple in via the raw set: Add rejects it,
			// so build the premise through a crafted triple list instead.
			_ = p
			q.Premise = p
			return q // this one is actually valid; replaced below
		}(),
	}
	for i, q := range cases[:3] {
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid query accepted: %v", i, q)
		}
	}
}

func TestRDFSInferenceInAnswers(t *testing.T) {
	// Fig. 1 flavor: querying types uses the closure/normal form.
	d := graph.New(
		graph.T(iri("paints"), rdfs.SubPropertyOf, iri("creates")),
		graph.T(iri("creates"), rdfs.Domain, iri("Artist")),
		graph.T(iri("picasso"), iri("paints"), iri("guernica")),
	)
	q := New(
		[]graph.Triple{{S: v("A"), P: iri("is"), O: iri("Artist")}},
		[]graph.Triple{{S: v("A"), P: rdfs.Type, O: iri("Artist")}},
	)
	a := eval(t, q, d, Options{})
	if !a.Graph.Has(graph.T(iri("picasso"), iri("is"), iri("Artist"))) {
		t.Fatalf("inferred type not matched:\n%v", a.Graph)
	}
}

func TestConstraintsFilterBlanks(t *testing.T) {
	// The extra (x,q,d) edge keeps the blank triple non-redundant, so it
	// survives the normal-form step of Definition 4.3.
	d := graph.New(
		graph.T(iri("a"), iri("p"), blk("x")),
		graph.T(blk("x"), iri("q"), iri("d")),
		graph.T(iri("a"), iri("p"), iri("b")),
	)
	base := func() *Query {
		return New(
			[]graph.Triple{{S: v("Y"), P: iri("seen"), O: iri("yes")}},
			[]graph.Triple{{S: iri("a"), P: iri("p"), O: v("Y")}},
		)
	}
	unconstrained := eval(t, base(), d, Options{})
	if len(unconstrained.Singles) != 2 {
		t.Fatalf("unconstrained singles = %d, want 2", len(unconstrained.Singles))
	}
	constrained := eval(t, base().WithConstraints(v("Y")), d, Options{})
	if len(constrained.Singles) != 1 {
		t.Fatalf("constrained singles = %d, want 1", len(constrained.Singles))
	}
	if !constrained.Graph.Has(graph.T(iri("b"), iri("seen"), iri("yes"))) {
		t.Fatal("wrong single survived the constraint")
	}
}

func TestIdentityQueryNote47(t *testing.T) {
	// D = {(X,b,c), (X,b,d)}: ans∪ ≡ D but ans+ ≢ D.
	d := graph.New(
		graph.T(blk("X"), iri("b"), iri("c")),
		graph.T(blk("X"), iri("b"), iri("d")),
	)
	q := Identity()

	union := eval(t, q, d, Options{Semantics: UnionSemantics})
	if !entail.Equivalent(union.Graph, d) {
		t.Fatalf("ans∪ of identity not equivalent to D:\n%v", union.Graph)
	}

	merge := eval(t, q, d, Options{Semantics: MergeSemantics})
	// Definition 4.3 matches against nf(D), which also contains the
	// reserved-vocabulary reflexivity triples; Note 4.7's claim concerns
	// the data part: the shared blank is split in two.
	dataPart := graph.New()
	merge.Graph.Each(func(tr graph.Triple) bool {
		if !rdfs.IsVocabulary(tr.P) {
			dataPart.Add(tr)
		}
		return true
	})
	if dataPart.Len() != 2 {
		t.Fatalf("ans+ data part size = %d, want 2:\n%v", dataPart.Len(), dataPart)
	}
	if len(dataPart.BlankNodes()) != 2 {
		t.Fatalf("ans+ must split the blank: %v", dataPart.BlankNodeList())
	}
	// ans+ is entailed by D but does not entail it back (no map D → ans+).
	if !entail.Entails(d, merge.Graph) {
		t.Fatal("D must entail ans+")
	}
	if entail.Entails(merge.Graph, d) {
		t.Fatal("ans+ must not entail D (Note 4.7)")
	}
}

func TestBridgeBlankUnionSemantics(t *testing.T) {
	// The motivating example for union semantics: a blank with several
	// properties is reassembled by (?X, feature, ?Y) ← (?X,?Y,?Z).
	d := graph.New(
		graph.T(blk("N"), iri("p1"), iri("z1")),
		graph.T(blk("N"), iri("p2"), iri("z2")),
	)
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("feature"), O: v("Y")}},
		[]graph.Triple{{S: v("X"), P: v("Y"), O: v("Z")}},
	)
	union := eval(t, q, d, Options{Semantics: UnionSemantics})
	// Both features attach to the SAME blank.
	if len(union.Graph.BlankNodes()) != 1 {
		t.Fatalf("union semantics must keep the bridge blank: %v", union.Graph)
	}
	merge := eval(t, q, d, Options{Semantics: MergeSemantics})
	if len(merge.Graph.BlankNodes()) != 2 {
		t.Fatalf("merge semantics must split the blank: %v", merge.Graph)
	}
}

func TestPremisesSection42(t *testing.T) {
	// Query: relatives of Peter, with premise (son, sp, relative).
	d := graph.New(
		graph.T(iri("john"), iri("son"), iri("peter")),
		graph.T(iri("mary"), iri("daughter"), iri("peter")),
	)
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("relative"), O: iri("peter")}},
		[]graph.Triple{{S: v("X"), P: iri("relative"), O: iri("peter")}},
	).WithPremise(graph.New(
		graph.T(iri("son"), rdfs.SubPropertyOf, iri("relative")),
	))
	a := eval(t, q, d, Options{})
	if !a.Graph.Has(graph.T(iri("john"), iri("relative"), iri("peter"))) {
		t.Fatalf("premise-driven inference missing:\n%v", a.Graph)
	}
	if a.Graph.Has(graph.T(iri("mary"), iri("relative"), iri("peter"))) {
		t.Fatal("daughter must not be inferred as relative")
	}
	// Without the premise: no answers.
	q2 := New(q.Head, q.Body)
	a2 := eval(t, q2, d, Options{})
	if a2.Graph.Len() != 0 {
		t.Fatalf("no-premise evaluation should be empty:\n%v", a2.Graph)
	}
}

// TestUniverseLeavesDictsUnchanged: building nf(D + P) renames colliding
// premise blanks, saturates (RDFS vocabulary, skolem constants) and
// retracts, yet neither the data graph's nor the premise's dictionary
// may gain a term — everything lands in overlays the index owns.
func TestUniverseLeavesDictsUnchanged(t *testing.T) {
	d := graph.New(
		graph.T(blk("x"), iri("son"), iri("peter")),
		graph.T(iri("john"), iri("brother"), iri("peter")),
	)
	premise := graph.New(
		graph.T(blk("x"), iri("daughter"), iri("peter")),
		graph.T(iri("son"), rdfs.SubPropertyOf, iri("relative")),
		graph.T(iri("brother"), rdfs.SubPropertyOf, iri("relative")),
	)
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("relative"), O: blk("r")}},
		[]graph.Triple{{S: v("X"), P: iri("relative"), O: iri("peter")}},
	).WithPremise(premise)
	dataTerms, premiseTerms := d.Dict().Len(), premise.Dict().Len()
	for _, skipNF := range []bool{false, true} {
		ix, err := Universe(context.Background(), q, d, skipNF)
		if err != nil {
			t.Fatal(err)
		}
		a, err := EvaluatePreparedIndexCtx(context.Background(), q, ix, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Singles) != 2 {
			t.Fatalf("skipNF=%v: singles = %d, want peter's two relatives:\n%v", skipNF, len(a.Singles), a.Graph)
		}
		if got := d.Dict().Len(); got != dataTerms {
			t.Fatalf("skipNF=%v: data dictionary grew %d -> %d", skipNF, dataTerms, got)
		}
		if got := premise.Dict().Len(); got != premiseTerms {
			t.Fatalf("skipNF=%v: premise dictionary grew %d -> %d", skipNF, premiseTerms, got)
		}
	}
}

func TestPremiseBlanksKeptApart(t *testing.T) {
	// D and P both use blank _:x; merge semantics of D + P must not
	// conflate them.
	d := graph.New(graph.T(blk("x"), iri("p"), iri("a")))
	q := New(
		[]graph.Triple{{S: v("S"), P: iri("p2"), O: v("O")}},
		[]graph.Triple{{S: v("S"), P: iri("p"), O: v("O")}},
	).WithPremise(graph.New(graph.T(blk("x"), iri("p"), iri("b"))))
	a := eval(t, q, d, Options{})
	// Two matchings with different subjects (the two distinct blanks).
	if len(a.Singles) != 2 {
		t.Fatalf("singles = %d, want 2:\n%v", len(a.Singles), a.Graph)
	}
	if len(a.Graph.BlankNodes()) != 2 {
		t.Fatalf("premise blank conflated with database blank: %v", a.Graph.BlankNodeList())
	}
}

func TestHeadBlankSkolemization(t *testing.T) {
	d := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("c"), iri("p"), iri("d")),
	)
	q := New(
		[]graph.Triple{
			{S: v("X"), P: iri("linked"), O: blk("N")},
			{S: blk("N"), P: iri("to"), O: v("Y")},
		},
		[]graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}},
	)
	a := eval(t, q, d, Options{})
	if len(a.Singles) != 2 {
		t.Fatalf("singles = %d, want 2", len(a.Singles))
	}
	// Each single answer must use ONE skolem blank shared by its two
	// triples, and different bindings must get different skolem blanks.
	blanks := a.Graph.BlankNodes()
	if len(blanks) != 2 {
		t.Fatalf("skolem blanks = %d, want 2 (one per binding)", len(blanks))
	}
	for _, s := range a.Singles {
		if len(s.BlankNodes()) != 1 {
			t.Fatalf("single answer must share one skolem blank:\n%v", s)
		}
	}
}

func TestSkolemDeterministicAcrossDatabases(t *testing.T) {
	// Proposition 4.5 hypothesis: same Skolem function across databases.
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("has"), O: blk("N")}},
		[]graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}},
	)
	d1 := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	d2 := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("z"), iri("q"), iri("w")),
	)
	a1 := eval(t, q, d1, Options{})
	a2 := eval(t, q, d2, Options{})
	if !a1.Graph.Equal(a2.Graph) {
		t.Fatalf("same binding must yield identical skolem blanks:\n%v\nvs\n%v", a1.Graph, a2.Graph)
	}
}

func TestIllFormedSingleAnswersDropped(t *testing.T) {
	// ?P in predicate position of the head; a matching binding ?P to a
	// literal-valued... here: binding ?P to a blank via the body makes
	// v(H) ill-formed, so that single answer is dropped (Definition 4.3).
	d := graph.New(
		graph.T(iri("a"), iri("p"), blk("x")),
		graph.T(iri("a"), iri("p"), iri("q")),
		graph.T(iri("s"), iri("q"), iri("o")),
	)
	q := New(
		[]graph.Triple{{S: iri("s"), P: v("Y"), O: iri("marked")}},
		[]graph.Triple{{S: iri("a"), P: iri("p"), O: v("Y")}},
	)
	a := eval(t, q, d, Options{})
	// Binding Y=_:x is dropped (blank predicate); Y=q survives.
	if len(a.Singles) != 1 {
		t.Fatalf("singles = %d, want 1:\n%v", len(a.Singles), a.Graph)
	}
	if !a.Graph.Has(graph.T(iri("s"), iri("q"), iri("marked"))) {
		t.Fatal("well-formed single missing")
	}
}

func TestProposition45Monotonicity(t *testing.T) {
	// If D' ⊨ D then ans(q,D') ⊨ ans(q,D), for both semantics.
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("r"), O: v("Y")}},
		[]graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}},
	)
	d := graph.New(graph.T(iri("a"), iri("p"), blk("u")))
	dPrime := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("a"), iri("p"), blk("w")),
		graph.T(iri("c"), iri("p"), iri("d")),
	)
	if !entail.Entails(dPrime, d) {
		t.Fatal("setup: D' ⊨ D expected")
	}
	for _, sem := range []Semantics{UnionSemantics, MergeSemantics} {
		aD := eval(t, q, d, Options{Semantics: sem})
		aDp := eval(t, q, dPrime, Options{Semantics: sem})
		if !entail.Entails(aDp.Graph, aD.Graph) {
			t.Fatalf("semantics %v: ans(q,D') ⊭ ans(q,D):\n%v\nvs\n%v", sem, aDp.Graph, aD.Graph)
		}
	}
}

func TestProposition45UnionEntailsMerge(t *testing.T) {
	d := graph.New(
		graph.T(blk("N"), iri("p"), iri("z1")),
		graph.T(blk("N"), iri("p"), iri("z2")),
	)
	q := Identity()
	u := eval(t, q, d, Options{Semantics: UnionSemantics})
	m := eval(t, q, d, Options{Semantics: MergeSemantics})
	if !entail.Entails(u.Graph, m.Graph) {
		t.Fatal("ans∪ must entail ans+ (Proposition 4.5(2))")
	}
}

func TestTheorem46InvarianceUnderEquivalence(t *testing.T) {
	// D ≡ D' implies ans(q,D) ≅ ans(q,D').
	d := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(blk("X"), iri("p"), iri("b")), // redundant
	)
	dPrime := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	if !entail.Equivalent(d, dPrime) {
		t.Fatal("setup: D ≡ D' expected")
	}
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("r"), O: v("Y")}},
		[]graph.Triple{{S: v("X"), P: iri("p"), O: v("Y")}},
	)
	a1 := eval(t, q, d, Options{})
	a2 := eval(t, q, dPrime, Options{})
	if !hom.Isomorphic(a1.Graph, a2.Graph) {
		t.Fatalf("Theorem 4.6 violated:\n%v\nvs\n%v", a1.Graph, a2.Graph)
	}
	// With SkipNormalForm the guarantee may be lost, but answers must
	// still be equivalent graphs.
	a3 := eval(t, q, d, Options{SkipNormalForm: true})
	a4 := eval(t, q, dPrime, Options{SkipNormalForm: true})
	if !entail.Equivalent(a3.Graph, a4.Graph) {
		t.Fatal("skip-nf answers not even equivalent")
	}
}

func TestRedundancyEliminationTheorem62(t *testing.T) {
	// Section 6.2 example: lean G2, query (?Z,p,?U) ← (?Z,p,?U), answer
	// is G1-like and not lean.
	d := graph.New(
		graph.T(iri("a"), iri("p"), blk("X")),
		graph.T(iri("a"), iri("p"), blk("Y")),
		graph.T(blk("X"), iri("q"), blk("Y")),
		graph.T(blk("Y"), iri("r"), iri("b")),
	)
	q := New(
		[]graph.Triple{{S: v("Z"), P: iri("p"), O: v("U")}},
		[]graph.Triple{{S: v("Z"), P: iri("p"), O: v("U")}},
	)
	a := eval(t, q, d, Options{Semantics: UnionSemantics})
	if IsLeanAnswer(a) {
		t.Fatalf("the projected answer must not be lean:\n%v", a.Graph)
	}
	lean := EliminateRedundancy(a)
	if lean.Len() != 1 {
		t.Fatalf("lean answer size = %d, want 1:\n%v", lean.Len(), lean)
	}
	if !entail.Equivalent(lean, a.Graph) {
		t.Fatal("redundancy elimination changed the meaning")
	}
}

func TestMergeSemanticsLeanCheckTheorem63(t *testing.T) {
	// The (X,q,c) edge keeps the blank in nf(D); the projection then
	// creates the redundancy in the answer.
	d := graph.New(
		graph.T(iri("a"), iri("p"), blk("X")),
		graph.T(blk("X"), iri("q"), iri("c")),
		graph.T(iri("a"), iri("p"), iri("b")),
	)
	q := New(
		[]graph.Triple{{S: iri("a"), P: iri("p"), O: v("U")}},
		[]graph.Triple{{S: iri("a"), P: iri("p"), O: v("U")}},
	)
	m := eval(t, q, d, Options{Semantics: MergeSemantics})
	// Singles: {(a,p,_:X!m0)}, {(a,p,b)}: blank single maps onto ground
	// single → not lean.
	if IsLeanAnswer(m) {
		t.Fatalf("merge answer should not be lean:\n%v", m.Graph)
	}
	// The component search must agree with Theorem 6.3's per-single
	// procedure on the same answer.
	if IsLeanAnswer(m) != singlesOracleLean(m) {
		t.Fatal("component search disagrees with the Theorem 6.3 procedure")
	}

	// A genuinely lean merge answer.
	d2 := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("c"), iri("p"), iri("d")),
	)
	m2 := eval(t, q, d2, Options{Semantics: MergeSemantics})
	if !IsLeanAnswer(m2) {
		t.Fatal("ground merge answer must be lean")
	}
	if IsLeanAnswer(m2) != singlesOracleLean(m2) {
		t.Fatal("component search disagrees with the Theorem 6.3 procedure on the lean case")
	}
}

func TestEvaluateMaxMatchings(t *testing.T) {
	d := graph.New()
	for i := 0; i < 10; i++ {
		d.Add(graph.T(iri(string(rune('a'+i))), iri("p"), iri("b")))
	}
	q := New(
		[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("b")}},
		[]graph.Triple{{S: v("X"), P: iri("p"), O: iri("b")}},
	)
	a := eval(t, q, d, Options{MaxMatchings: 3})
	if a.Matchings != 3 {
		t.Fatalf("matchings = %d, want 3", a.Matchings)
	}
}

func TestQueryString(t *testing.T) {
	q := New(
		[]graph.Triple{{S: v("A"), P: iri("creates"), O: v("Y")}},
		[]graph.Triple{{S: v("A"), P: iri("paints"), O: v("Y")}},
	).WithConstraints(v("A")).WithPremise(graph.New(graph.T(iri("a"), iri("b"), iri("c"))))
	s := q.String()
	for _, want := range []string{"?A", "←", "premise", "constraints"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestSingleAnswerDedupCollapsesMultisetHeads(t *testing.T) {
	// Two head patterns can instantiate to the same triple under one
	// matching and to distinct triples under another; single answers
	// are graphs (sets), so v(H) = {A,A,B} and v(H) = {A,B,B} are the
	// same single answer and must be deduplicated.
	d := graph.New(
		graph.T(iri("a"), iri("p"), iri("b")),
		graph.T(iri("c"), iri("p"), iri("d")),
	)
	q := New(
		[]graph.Triple{
			{S: v("X1"), P: iri("p"), O: v("Y1")},
			{S: v("X2"), P: iri("p"), O: v("Y2")},
		},
		[]graph.Triple{
			{S: v("X1"), P: iri("p"), O: v("Y1")},
			{S: v("X2"), P: iri("p"), O: v("Y2")},
		},
	)
	a := eval(t, q, d, Options{})
	if a.Matchings != 4 {
		t.Fatalf("matchings = %d, want 4", a.Matchings)
	}
	// Distinct single answers: {A,A}={A}, {A,B}, {B,A}={A,B}, {B,B}={B}
	// -> {A}, {B}, {A,B}.
	if len(a.Singles) != 3 {
		for _, s := range a.Singles {
			t.Logf("single:\n%s", s)
		}
		t.Fatalf("singles = %d, want 3", len(a.Singles))
	}
	for i, s := range a.Singles {
		for j := i + 1; j < len(a.Singles); j++ {
			if s.Equal(a.Singles[j]) {
				t.Fatalf("singles %d and %d are equal graphs (dedup failed)", i, j)
			}
		}
	}
}

// TestPrepareKeepsSkolemPrefixedIRIs: the matching universe of a
// non-ground database is its own RDFS-cl (or the core of it), with no
// skolemize/unskolemize round trip — that round trip would read an
// IRI that merely carries graph.SkolemPrefix as a skolem constant and
// turn it into a blank node. Under both flags the IRI stays an IRI,
// its asserted triples stay in the universe, and no blank named after
// it is interned.
func TestPrepareKeepsSkolemPrefixedIRIs(t *testing.T) {
	skolemLike := iri(graph.SkolemPrefix + "x")
	for _, skipNF := range []bool{true, false} {
		d := graph.New(
			graph.T(blk("y"), iri("p"), iri("o")),
			graph.T(skolemLike, iri("q"), iri("o")),
			graph.T(skolemLike, rdfs.Type, iri("A")),
			graph.T(iri("A"), rdfs.SubClassOf, iri("B")),
		)
		u, err := Prepare(context.Background(), d, skipNF)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []graph.Triple{
			graph.T(skolemLike, iri("q"), iri("o")),
			graph.T(skolemLike, rdfs.Type, iri("B")),
		} {
			if !u.Has(want) {
				t.Fatalf("skipNF=%v: universe lacks %v:\n%v", skipNF, want, u)
			}
		}
		if _, ok := d.Dict().Lookup(blk("x")); ok {
			t.Fatalf("skipNF=%v: the skolem-prefixed IRI was unskolemized into a blank node", skipNF)
		}
	}
}

// singlesOracleLean is the reference for IsLeanAnswer under merge
// semantics: Theorem 6.3's per-single search. The singles of a merge
// answer share no blanks, so A is non-lean iff some single Gj, as it
// appears inside A, has a non-ground triple t and a map Gj → A∖{t}.
func singlesOracleLean(a *Answer) bool {
	for i, s := range a.Singles {
		gj := graph.RenameBlanksApart(s, fmt.Sprintf("!m%d", i))
		for _, t := range gj.Triples() {
			if !t.IsGround() && hom.ExistsMap(gj, a.Graph.Without(t)) {
				return false
			}
		}
	}
	return true
}

// triplesOracleLean is the per-triple test of Definition 3.7: G is
// non-lean iff some non-ground triple t has a map G → G∖{t}.
func triplesOracleLean(g *graph.Graph) bool {
	for _, t := range g.Triples() {
		if !t.IsGround() && hom.ExistsMap(g, g.Without(t)) {
			return false
		}
	}
	return true
}

// TestIsLeanAnswerAgreesWithOracles checks IsLeanAnswer on E13-shaped
// answers under both semantics against the per-triple oracle, and under
// merge semantics against the per-single one too.
func TestIsLeanAnswerAgreesWithOracles(t *testing.T) {
	a, p, q := iri("a"), iri("p"), iri("q")
	z, u, c := v("Z"), v("U"), v("C")
	project := New([]graph.Triple{{S: z, P: p, O: u}}, []graph.Triple{{S: z, P: p, O: u}})
	keep := New(
		[]graph.Triple{{S: z, P: p, O: u}, {S: u, P: q, O: c}},
		[]graph.Triple{{S: z, P: p, O: u}, {S: u, P: q, O: c}},
	)
	for n := 1; n <= 4; n++ {
		d := graph.New(graph.T(a, p, iri("b")))
		for i := 0; i < n; i++ {
			x := blk(fmt.Sprintf("X%d", i))
			d.Add(graph.T(a, p, x))
			d.Add(graph.T(x, q, iri(fmt.Sprintf("c%d", i))))
		}
		for _, sem := range []Semantics{UnionSemantics, MergeSemantics} {
			for name, qq := range map[string]*Query{"project": project, "keep": keep} {
				ans := eval(t, qq, d, Options{Semantics: sem})
				got := IsLeanAnswer(ans)
				if want := triplesOracleLean(ans.Graph); got != want {
					t.Fatalf("n=%d %s sem=%v: IsLeanAnswer = %v, per-triple oracle %v\n%v", n, name, sem, got, want, ans.Graph)
				}
				if sem == MergeSemantics && got != singlesOracleLean(ans) {
					t.Fatalf("n=%d %s: IsLeanAnswer = %v, per-single oracle %v\n%v", n, name, got, !got, ans.Graph)
				}
				if wantLean := name == "keep"; got != wantLean {
					t.Fatalf("n=%d %s sem=%v: IsLeanAnswer = %v, want %v\n%v", n, name, sem, got, wantLean, ans.Graph)
				}
			}
		}
	}
}
