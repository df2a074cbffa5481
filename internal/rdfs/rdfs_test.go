package rdfs

import (
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/term"
)

func iri(s string) term.Term { return term.NewIRI(s) }
func blk(s string) term.Term { return term.NewBlank(s) }

func TestVocabulary(t *testing.T) {
	v := Vocabulary()
	if len(v) != 5 {
		t.Fatalf("rdfsV has %d elements, want 5", len(v))
	}
	for _, x := range v {
		if !IsVocabulary(x) {
			t.Errorf("%v not recognized as vocabulary", x)
		}
	}
	if IsVocabulary(iri("http://ex.org/p")) {
		t.Error("ordinary IRI recognized as vocabulary")
	}
	if IsVocabulary(blk("x")) {
		t.Error("blank recognized as vocabulary")
	}
}

func TestIsSimple(t *testing.T) {
	simple := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	if !IsSimple(simple) {
		t.Error("vocabulary-free graph must be simple")
	}
	withSC := graph.New(graph.T(iri("a"), SubClassOf, iri("b")))
	if IsSimple(withSC) {
		t.Error("graph with sc must not be simple")
	}
	// Vocabulary in subject position also breaks simplicity.
	withVocabSubj := graph.New(graph.T(Type, iri("p"), iri("b")))
	if IsSimple(withVocabSubj) {
		t.Error("graph mentioning type in subject must not be simple")
	}
}

func TestMentionsVocabularyOutsidePredicate(t *testing.T) {
	ok := graph.New(
		graph.T(iri("a"), SubClassOf, iri("b")),
		graph.T(iri("x"), Type, iri("a")),
	)
	if MentionsVocabularyOutsidePredicate(ok) {
		t.Error("vocabulary in predicate position only must be fine")
	}
	bad := graph.New(graph.T(iri("q"), SubPropertyOf, Domain))
	if !MentionsVocabularyOutsidePredicate(bad) {
		t.Error("dom in object position not detected")
	}
}

func mustValidate(t *testing.T, in Instantiation) {
	t.Helper()
	if err := in.Validate(); err != nil {
		t.Fatalf("Validate(%v) = %v", in, err)
	}
}

func TestRuleInstantiationsTransitivity(t *testing.T) {
	g := graph.New(
		graph.T(iri("a"), SubPropertyOf, iri("b")),
		graph.T(iri("b"), SubPropertyOf, iri("c")),
	)
	insts := Instantiations(g, RuleSubPropTrans)
	found := false
	for _, in := range insts {
		mustValidate(t, in)
		if in.Conclusions[0] == graph.T(iri("a"), SubPropertyOf, iri("c")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("transitivity conclusion missing in %v", insts)
	}
}

func TestRuleInheritance(t *testing.T) {
	g := graph.New(
		graph.T(iri("p"), SubPropertyOf, iri("q")),
		graph.T(iri("x"), iri("p"), iri("y")),
	)
	insts := Instantiations(g, RuleSubPropInherit)
	found := false
	for _, in := range insts {
		mustValidate(t, in)
		if in.Conclusions[0] == graph.T(iri("x"), iri("q"), iri("y")) {
			found = true
		}
	}
	if !found {
		t.Fatal("inheritance conclusion missing")
	}
}

func TestRuleInheritanceSkipsBlankSuperproperty(t *testing.T) {
	// (p, sp, _:B), (x, p, y) must NOT instantiate rule (3): the
	// conclusion would have a blank predicate.
	g := graph.New(
		graph.T(iri("p"), SubPropertyOf, blk("B")),
		graph.T(iri("x"), iri("p"), iri("y")),
	)
	if insts := Instantiations(g, RuleSubPropInherit); len(insts) != 0 {
		t.Fatalf("ill-formed instantiations produced: %v", insts)
	}
}

func TestRuleDomainTyping(t *testing.T) {
	g := graph.New(
		graph.T(iri("p"), Domain, iri("C")),
		graph.T(iri("q"), SubPropertyOf, iri("p")),
		graph.T(iri("x"), iri("q"), iri("y")),
	)
	insts := Instantiations(g, RuleDomainTyping)
	found := false
	for _, in := range insts {
		mustValidate(t, in)
		if in.Conclusions[0] == graph.T(iri("x"), Type, iri("C")) {
			found = true
		}
	}
	if !found {
		t.Fatal("domain typing conclusion missing")
	}
}

func TestRuleRangeTyping(t *testing.T) {
	g := graph.New(
		graph.T(iri("p"), Range, iri("C")),
		graph.T(iri("q"), SubPropertyOf, iri("p")),
		graph.T(iri("x"), iri("q"), iri("y")),
	)
	insts := Instantiations(g, RuleRangeTyping)
	found := false
	for _, in := range insts {
		mustValidate(t, in)
		if in.Conclusions[0] == graph.T(iri("y"), Type, iri("C")) {
			found = true
		}
	}
	if !found {
		t.Fatal("range typing conclusion missing")
	}
}

func TestReflexivityRules(t *testing.T) {
	g := graph.New(
		graph.T(iri("x"), iri("p"), iri("y")),
		graph.T(iri("a"), SubPropertyOf, iri("b")),
		graph.T(iri("c"), SubClassOf, iri("d")),
		graph.T(iri("q"), Domain, iri("C")),
		graph.T(iri("z"), Type, iri("D")),
	)
	has := func(rule RuleID, want graph.Triple) bool {
		for _, in := range Instantiations(g, rule) {
			mustValidate(t, in)
			for _, c := range in.Conclusions {
				if c == want {
					return true
				}
			}
		}
		return false
	}
	checks := []struct {
		rule RuleID
		want graph.Triple
	}{
		{RuleSubPropReflPred, graph.T(iri("p"), SubPropertyOf, iri("p"))},
		{RuleSubPropReflVocab, graph.T(Type, SubPropertyOf, Type)},
		{RuleSubPropReflDomRange, graph.T(iri("q"), SubPropertyOf, iri("q"))},
		{RuleSubPropReflEdge, graph.T(iri("a"), SubPropertyOf, iri("a"))},
		{RuleSubPropReflEdge, graph.T(iri("b"), SubPropertyOf, iri("b"))},
		{RuleSubClassReflObj, graph.T(iri("C"), SubClassOf, iri("C"))},
		{RuleSubClassReflObj, graph.T(iri("D"), SubClassOf, iri("D"))},
		{RuleSubClassReflEdge, graph.T(iri("c"), SubClassOf, iri("c"))},
		{RuleSubClassReflEdge, graph.T(iri("d"), SubClassOf, iri("d"))},
	}
	for _, c := range checks {
		if !has(c.rule, c.want) {
			t.Errorf("%v: missing conclusion %v", c.rule, c.want)
		}
	}
}

func TestValidateRejectsWrongShapes(t *testing.T) {
	bad := []Instantiation{
		{ // wrong predicate in transitivity
			Rule: RuleSubPropTrans,
			Antecedents: []graph.Triple{
				graph.T(iri("a"), SubClassOf, iri("b")),
				graph.T(iri("b"), SubClassOf, iri("c")),
			},
			Conclusions: []graph.Triple{graph.T(iri("a"), SubClassOf, iri("c"))},
		},
		{ // broken chain
			Rule: RuleSubPropTrans,
			Antecedents: []graph.Triple{
				graph.T(iri("a"), SubPropertyOf, iri("b")),
				graph.T(iri("z"), SubPropertyOf, iri("c")),
			},
			Conclusions: []graph.Triple{graph.T(iri("a"), SubPropertyOf, iri("c"))},
		},
		{ // rule 9 with non-vocabulary
			Rule:        RuleSubPropReflVocab,
			Conclusions: []graph.Triple{graph.T(iri("p"), SubPropertyOf, iri("p"))},
		},
		{ // wrong arity
			Rule:        RuleSubClassReflEdge,
			Antecedents: []graph.Triple{graph.T(iri("a"), SubClassOf, iri("b"))},
			Conclusions: []graph.Triple{graph.T(iri("a"), SubClassOf, iri("a"))},
		},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: invalid instantiation accepted: %v", i, in)
		}
	}
}

func TestAllInstantiationsCoverRules(t *testing.T) {
	g := graph.New(
		graph.T(iri("a"), SubPropertyOf, iri("b")),
		graph.T(iri("b"), SubPropertyOf, iri("c")),
		graph.T(iri("x"), iri("a"), iri("y")),
		graph.T(iri("A"), SubClassOf, iri("B")),
		graph.T(iri("B"), SubClassOf, iri("C")),
		graph.T(iri("u"), Type, iri("A")),
		// dom/range sit on the *super*property b so that the (C,sp,A)
		// antecedent of rules (6)/(7) is satisfiable from base triples.
		graph.T(iri("b"), Domain, iri("A")),
		graph.T(iri("b"), Range, iri("B")),
	)
	seen := map[RuleID]bool{}
	for _, in := range AllInstantiations(g) {
		mustValidate(t, in)
		seen[in.Rule] = true
	}
	for _, r := range DeductiveRules() {
		if !seen[r] {
			t.Errorf("rule %v produced no instantiation on a graph exercising it", r)
		}
	}
}

func TestProofVerifyAndProve(t *testing.T) {
	// G: schema with sp/sc/dom; H a consequence with a blank.
	g := graph.New(
		graph.T(iri("son"), SubPropertyOf, iri("child")),
		graph.T(iri("child"), SubPropertyOf, iri("descendant")),
		graph.T(iri("tom"), iri("son"), iri("mary")),
	)
	h := graph.New(
		graph.T(iri("tom"), iri("descendant"), iri("mary")),
		graph.T(blk("Someone"), iri("child"), iri("mary")),
	)
	proof, ok := Prove(g, h)
	if !ok {
		t.Fatal("expected a proof")
	}
	if err := proof.Verify(g, h); err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	if proof.Len() == 0 {
		t.Fatal("empty proof")
	}
}

func TestProveFailsOnNonConsequence(t *testing.T) {
	g := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	h := graph.New(graph.T(iri("a"), iri("q"), iri("b")))
	if _, ok := Prove(g, h); ok {
		t.Fatal("proved a non-consequence")
	}
}

func TestVerifyRejectsBrokenProofs(t *testing.T) {
	g := graph.New(graph.T(iri("a"), SubPropertyOf, iri("b")))
	h := graph.New(
		graph.T(iri("a"), SubPropertyOf, iri("b")),
		graph.T(iri("a"), SubPropertyOf, iri("c")),
	)
	// A proof applying transitivity with a missing antecedent.
	p := &Proof{Steps: []Step{{
		Rule: RuleSubPropTrans,
		Inst: Instantiation{
			Rule: RuleSubPropTrans,
			Antecedents: []graph.Triple{
				graph.T(iri("a"), SubPropertyOf, iri("b")),
				graph.T(iri("b"), SubPropertyOf, iri("c")), // not in G
			},
			Conclusions: []graph.Triple{graph.T(iri("a"), SubPropertyOf, iri("c"))},
		},
	}}}
	if err := p.Verify(g, h); err == nil {
		t.Fatal("broken proof verified")
	}
	// A proof whose final graph is not H.
	empty := &Proof{}
	if err := empty.Verify(g, h); err == nil {
		t.Fatal("empty proof cannot derive a larger H")
	}
}

func TestVerifyExistentialStep(t *testing.T) {
	g := graph.New(graph.T(iri("a"), iri("p"), iri("b")))
	h := graph.New(graph.T(blk("X"), iri("p"), iri("b")))
	p := &Proof{Steps: []Step{{
		Rule:   RuleExistential,
		Result: h,
		Mu:     graph.Map{blk("X"): iri("a")},
	}}}
	if err := p.Verify(g, h); err != nil {
		t.Fatalf("existential step rejected: %v", err)
	}
	// Wrong map: image not a subgraph.
	bad := &Proof{Steps: []Step{{
		Rule:   RuleExistential,
		Result: h,
		Mu:     graph.Map{blk("X"): iri("z")},
	}}}
	if err := bad.Verify(g, h); err == nil {
		t.Fatal("bad existential step accepted")
	}
}

func TestProveExample31FromPaper(t *testing.T) {
	// Fig. 1 flavored: dom/range typing through subproperty.
	g := graph.New(
		graph.T(iri("paints"), SubPropertyOf, iri("creates")),
		graph.T(iri("creates"), Domain, iri("Artist")),
		graph.T(iri("creates"), Range, iri("Artifact")),
		graph.T(iri("Picasso"), iri("paints"), iri("Guernica")),
	)
	h := graph.New(
		graph.T(iri("Picasso"), Type, iri("Artist")),
		graph.T(iri("Guernica"), Type, iri("Artifact")),
		graph.T(iri("Picasso"), iri("creates"), iri("Guernica")),
	)
	proof, ok := Prove(g, h)
	if !ok {
		t.Fatal("expected a proof")
	}
	if err := proof.Verify(g, h); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestRuleStringNames(t *testing.T) {
	for r := RuleID(1); r <= 13; r++ {
		if r.String() == "" {
			t.Errorf("rule %d has no name", r)
		}
	}
}

// TestReflEdgeKeepsWellFormedConclusion: rules (11) and (13) on an edge
// into a literal conclude the subject's loop, though the object's is
// ill-formed, and Prove finds and verifies a derivation of it.
func TestReflEdgeKeepsWellFormedConclusion(t *testing.T) {
	lit := term.NewLiteral("l")
	for _, tc := range []struct {
		rule RuleID
		p    term.Term
	}{{RuleSubPropReflEdge, SubPropertyOf}, {RuleSubClassReflEdge, SubClassOf}} {
		g := graph.New(graph.T(iri("urn:r"), tc.p, lit))
		loop := graph.T(iri("urn:r"), tc.p, iri("urn:r"))
		ins := Instantiations(g, tc.rule)
		if len(ins) != 1 || len(ins[0].Conclusions) != 1 || ins[0].Conclusions[0] != loop {
			t.Fatalf("%v: instantiations %v, want one concluding %v alone", tc.rule, ins, loop)
		}
		mustValidate(t, ins[0])
		none := ins[0]
		none.Conclusions = nil
		if none.Validate() == nil {
			t.Errorf("%v: instantiation with no conclusion accepted", tc.rule)
		}
		h := graph.New(loop)
		proof, ok := Prove(g, h)
		if !ok {
			t.Fatalf("%v: no proof of %v from %v", tc.rule, loop, g)
		}
		if err := proof.Verify(g, h); err != nil {
			t.Fatalf("%v: proof does not verify: %v", tc.rule, err)
		}
	}
}
