package rdfs

import (
	"fmt"
	"slices"

	"semwebdb/internal/graph"
	"semwebdb/internal/term"
)

// RuleID identifies a rule of the deductive system (Section 2.3.2). The
// numbering follows the paper exactly.
type RuleID int

const (
	// RuleExistential is GROUP A, rule (1): from G derive any G' with a
	// map μ : G' → G.
	RuleExistential RuleID = 1
	// RuleSubPropTrans is rule (2): (A,sp,B),(B,sp,C) ⊢ (A,sp,C).
	RuleSubPropTrans RuleID = 2
	// RuleSubPropInherit is rule (3): (A,sp,B),(X,A,Y) ⊢ (X,B,Y).
	RuleSubPropInherit RuleID = 3
	// RuleSubClassTrans is rule (4): (A,sc,B),(B,sc,C) ⊢ (A,sc,C).
	RuleSubClassTrans RuleID = 4
	// RuleTypeLift is rule (5): (A,sc,B),(X,type,A) ⊢ (X,type,B).
	RuleTypeLift RuleID = 5
	// RuleDomainTyping is rule (6): (A,dom,B),(C,sp,A),(X,C,Y) ⊢ (X,type,B).
	RuleDomainTyping RuleID = 6
	// RuleRangeTyping is rule (7): (A,range,B),(C,sp,A),(X,C,Y) ⊢ (Y,type,B).
	RuleRangeTyping RuleID = 7
	// RuleSubPropReflPred is rule (8): (X,A,Y) ⊢ (A,sp,A).
	RuleSubPropReflPred RuleID = 8
	// RuleSubPropReflVocab is rule (9): ⊢ (p,sp,p) for p ∈ rdfsV.
	RuleSubPropReflVocab RuleID = 9
	// RuleSubPropReflDomRange is rule (10): (A,p,X) ⊢ (A,sp,A), p ∈ {dom,range}.
	RuleSubPropReflDomRange RuleID = 10
	// RuleSubPropReflEdge is rule (11): (A,sp,B) ⊢ (A,sp,A), (B,sp,B).
	RuleSubPropReflEdge RuleID = 11
	// RuleSubClassReflObj is rule (12): (X,p,A) ⊢ (A,sc,A), p ∈ {dom,range,type}.
	RuleSubClassReflObj RuleID = 12
	// RuleSubClassReflEdge is rule (13): (A,sc,B) ⊢ (A,sc,A), (B,sc,B).
	RuleSubClassReflEdge RuleID = 13
)

// String names the rule with its paper group.
func (r RuleID) String() string {
	switch r {
	case RuleExistential:
		return "rule(1)/existential"
	case RuleSubPropTrans:
		return "rule(2)/sp-transitivity"
	case RuleSubPropInherit:
		return "rule(3)/sp-inheritance"
	case RuleSubClassTrans:
		return "rule(4)/sc-transitivity"
	case RuleTypeLift:
		return "rule(5)/type-lifting"
	case RuleDomainTyping:
		return "rule(6)/domain-typing"
	case RuleRangeTyping:
		return "rule(7)/range-typing"
	case RuleSubPropReflPred:
		return "rule(8)/sp-reflexivity-predicate"
	case RuleSubPropReflVocab:
		return "rule(9)/sp-reflexivity-vocabulary"
	case RuleSubPropReflDomRange:
		return "rule(10)/sp-reflexivity-domrange"
	case RuleSubPropReflEdge:
		return "rule(11)/sp-reflexivity-edge"
	case RuleSubClassReflObj:
		return "rule(12)/sc-reflexivity-object"
	case RuleSubClassReflEdge:
		return "rule(13)/sc-reflexivity-edge"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// DeductiveRules lists the rules with triple-pattern shape, i.e. rules
// (2)–(13); rule (1) is the existential (map) rule and is handled apart.
func DeductiveRules() []RuleID {
	return []RuleID{
		RuleSubPropTrans, RuleSubPropInherit, RuleSubClassTrans,
		RuleTypeLift, RuleDomainTyping, RuleRangeTyping,
		RuleSubPropReflPred, RuleSubPropReflVocab, RuleSubPropReflDomRange,
		RuleSubPropReflEdge, RuleSubClassReflObj, RuleSubClassReflEdge,
	}
}

// Instantiation is an instantiation R/R' of a rule (2)–(13): a uniform
// replacement of the rule's variables by elements of UB whose
// antecedents are well-formed RDF triples (Section 2.3.2). Conclusions
// holds the well-formed members of R'; only rules (11) and (13) have
// two, and an instantiation may carry one of them alone.
type Instantiation struct {
	Rule        RuleID
	Antecedents []graph.Triple // R: must be present in the current graph
	Conclusions []graph.Triple // R': added by the step
}

// String renders the instantiation as "R ⊢ R'".
func (in Instantiation) String() string {
	s := in.Rule.String() + ":"
	for _, a := range in.Antecedents {
		s += " [" + a.String() + "]"
	}
	s += " ⊢"
	for _, c := range in.Conclusions {
		s += " [" + c.String() + "]"
	}
	return s
}

// Validate checks that the instantiation has the shape demanded by its
// rule and that all its triples are well-formed.
func (in Instantiation) Validate() error {
	for _, t := range append(append([]graph.Triple{}, in.Antecedents...), in.Conclusions...) {
		if !t.WellFormed() {
			return fmt.Errorf("rdfs: ill-formed triple %s in instantiation of %s", t, in.Rule)
		}
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("rdfs: invalid instantiation of %s: %s", in.Rule, fmt.Sprintf(format, args...))
	}
	need := func(nAnt, nCon int) error {
		if len(in.Antecedents) != nAnt || len(in.Conclusions) != nCon {
			return bad("want %d antecedents and %d conclusions, got %d/%d",
				nAnt, nCon, len(in.Antecedents), len(in.Conclusions))
		}
		return nil
	}
	switch in.Rule {
	case RuleSubPropTrans:
		if err := need(2, 1); err != nil {
			return err
		}
		a0, a1, c := in.Antecedents[0], in.Antecedents[1], in.Conclusions[0]
		if a0.P != SubPropertyOf || a1.P != SubPropertyOf || c.P != SubPropertyOf {
			return bad("predicates must be sp")
		}
		if a0.O != a1.S || c.S != a0.S || c.O != a1.O {
			return bad("transitivity chain mismatch")
		}
	case RuleSubPropInherit:
		if err := need(2, 1); err != nil {
			return err
		}
		sp, body, c := in.Antecedents[0], in.Antecedents[1], in.Conclusions[0]
		if sp.P != SubPropertyOf {
			return bad("first antecedent must be an sp triple")
		}
		if body.P != sp.S {
			return bad("second antecedent's predicate must be the subproperty")
		}
		if c.S != body.S || c.P != sp.O || c.O != body.O {
			return bad("conclusion must lift the predicate to the superproperty")
		}
	case RuleSubClassTrans:
		if err := need(2, 1); err != nil {
			return err
		}
		a0, a1, c := in.Antecedents[0], in.Antecedents[1], in.Conclusions[0]
		if a0.P != SubClassOf || a1.P != SubClassOf || c.P != SubClassOf {
			return bad("predicates must be sc")
		}
		if a0.O != a1.S || c.S != a0.S || c.O != a1.O {
			return bad("transitivity chain mismatch")
		}
	case RuleTypeLift:
		if err := need(2, 1); err != nil {
			return err
		}
		sc, ty, c := in.Antecedents[0], in.Antecedents[1], in.Conclusions[0]
		if sc.P != SubClassOf || ty.P != Type || c.P != Type {
			return bad("want sc and type antecedents, type conclusion")
		}
		if ty.O != sc.S || c.S != ty.S || c.O != sc.O {
			return bad("type lifting mismatch")
		}
	case RuleDomainTyping:
		if err := need(3, 1); err != nil {
			return err
		}
		dm, sp, body, c := in.Antecedents[0], in.Antecedents[1], in.Antecedents[2], in.Conclusions[0]
		if dm.P != Domain || sp.P != SubPropertyOf || c.P != Type {
			return bad("want dom, sp antecedents and type conclusion")
		}
		if sp.O != dm.S || body.P != sp.S {
			return bad("sp chain mismatch: need (A,dom,B),(C,sp,A),(X,C,Y)")
		}
		if c.S != body.S || c.O != dm.O {
			return bad("conclusion must be (X,type,B)")
		}
	case RuleRangeTyping:
		if err := need(3, 1); err != nil {
			return err
		}
		rg, sp, body, c := in.Antecedents[0], in.Antecedents[1], in.Antecedents[2], in.Conclusions[0]
		if rg.P != Range || sp.P != SubPropertyOf || c.P != Type {
			return bad("want range, sp antecedents and type conclusion")
		}
		if sp.O != rg.S || body.P != sp.S {
			return bad("sp chain mismatch: need (A,range,B),(C,sp,A),(X,C,Y)")
		}
		if c.S != body.O || c.O != rg.O {
			return bad("conclusion must be (Y,type,B)")
		}
	case RuleSubPropReflPred:
		if err := need(1, 1); err != nil {
			return err
		}
		a, c := in.Antecedents[0], in.Conclusions[0]
		if c.P != SubPropertyOf || c.S != a.P || c.O != a.P {
			return bad("conclusion must be (A,sp,A) for the antecedent's predicate")
		}
	case RuleSubPropReflVocab:
		if err := need(0, 1); err != nil {
			return err
		}
		c := in.Conclusions[0]
		if c.P != SubPropertyOf || c.S != c.O || !IsVocabulary(c.S) {
			return bad("conclusion must be (p,sp,p) with p ∈ rdfsV")
		}
	case RuleSubPropReflDomRange:
		if err := need(1, 1); err != nil {
			return err
		}
		a, c := in.Antecedents[0], in.Conclusions[0]
		if a.P != Domain && a.P != Range {
			return bad("antecedent must be a dom or range triple")
		}
		if c.P != SubPropertyOf || c.S != a.S || c.O != a.S {
			return bad("conclusion must be (A,sp,A) for the antecedent's subject")
		}
	case RuleSubPropReflEdge, RuleSubClassReflEdge:
		// The conclusions are the well-formed members of (A,p,A),
		// (B,p,B): the second is ill-formed when B is a literal.
		p := SubPropertyOf
		if in.Rule == RuleSubClassReflEdge {
			p = SubClassOf
		}
		if len(in.Antecedents) != 1 || in.Antecedents[0].P != p {
			return bad("want one %s antecedent", p)
		}
		a := in.Antecedents[0]
		var want []graph.Triple
		for _, x := range []term.Term{a.S, a.O} {
			if c := graph.T(x, p, x); c.WellFormed() {
				want = append(want, c)
			}
		}
		if !slices.Equal(in.Conclusions, want) {
			return bad("conclusions must be the well-formed members of (A,%s,A), (B,%s,B)", p, p)
		}
	case RuleSubClassReflObj:
		if err := need(1, 1); err != nil {
			return err
		}
		a, c := in.Antecedents[0], in.Conclusions[0]
		if a.P != Domain && a.P != Range && a.P != Type {
			return bad("antecedent must be a dom, range or type triple")
		}
		if c.P != SubClassOf || c.S != a.O || c.O != a.O {
			return bad("conclusion must be (A,sc,A) for the antecedent's object")
		}
	default:
		return fmt.Errorf("rdfs: rule %s has no triple-pattern shape", in.Rule)
	}
	return nil
}

// Instantiations enumerates all instantiations of the given rule whose
// antecedents are triples of g, each carrying its well-formed
// conclusions; one with none is skipped (e.g. a blank superproperty
// flowing into a predicate position under rule (3)). This implements
// the side-condition of Section 2.3.2 per conclusion: rule (13) on
// (A,sc,"l") still concludes (A,sc,A), which holds in every RDFS model
// because A is then a class and sc is reflexive on classes.
func Instantiations(g *graph.Graph, rule RuleID) []Instantiation {
	var out []Instantiation
	emit := func(ants []graph.Triple, cons ...graph.Triple) {
		kept := cons[:0] // cons is this call's own slice
		for _, c := range cons {
			if c.WellFormed() {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			out = append(out, Instantiation{Rule: rule, Antecedents: ants, Conclusions: kept})
		}
	}
	switch rule {
	case RuleSubPropTrans:
		sps := g.WithPredicate(SubPropertyOf)
		for _, t1 := range sps {
			for _, t2 := range sps {
				if t1.O == t2.S {
					emit([]graph.Triple{t1, t2}, graph.T(t1.S, SubPropertyOf, t2.O))
				}
			}
		}
	case RuleSubPropInherit:
		sps := g.WithPredicate(SubPropertyOf)
		for _, sp := range sps {
			if !sp.O.CanPredicate() {
				continue
			}
			for _, body := range g.WithPredicate(sp.S) {
				emit([]graph.Triple{sp, body}, graph.T(body.S, sp.O, body.O))
			}
		}
	case RuleSubClassTrans:
		scs := g.WithPredicate(SubClassOf)
		for _, t1 := range scs {
			for _, t2 := range scs {
				if t1.O == t2.S {
					emit([]graph.Triple{t1, t2}, graph.T(t1.S, SubClassOf, t2.O))
				}
			}
		}
	case RuleTypeLift:
		scs := g.WithPredicate(SubClassOf)
		tys := g.WithPredicate(Type)
		for _, sc := range scs {
			for _, ty := range tys {
				if ty.O == sc.S {
					emit([]graph.Triple{sc, ty}, graph.T(ty.S, Type, sc.O))
				}
			}
		}
	case RuleDomainTyping:
		doms := g.WithPredicate(Domain)
		sps := g.WithPredicate(SubPropertyOf)
		for _, dm := range doms {
			for _, sp := range sps {
				if sp.O != dm.S || !sp.S.CanPredicate() {
					continue
				}
				for _, body := range g.WithPredicate(sp.S) {
					emit([]graph.Triple{dm, sp, body}, graph.T(body.S, Type, dm.O))
				}
			}
		}
	case RuleRangeTyping:
		rgs := g.WithPredicate(Range)
		sps := g.WithPredicate(SubPropertyOf)
		for _, rg := range rgs {
			for _, sp := range sps {
				if sp.O != rg.S || !sp.S.CanPredicate() {
					continue
				}
				for _, body := range g.WithPredicate(sp.S) {
					emit([]graph.Triple{rg, sp, body}, graph.T(body.O, Type, rg.O))
				}
			}
		}
	case RuleSubPropReflPred:
		for _, t := range g.Triples() {
			emit([]graph.Triple{t}, graph.T(t.P, SubPropertyOf, t.P))
		}
	case RuleSubPropReflVocab:
		for _, p := range Vocabulary() {
			emit(nil, graph.T(p, SubPropertyOf, p))
		}
	case RuleSubPropReflDomRange:
		for _, t := range append(g.WithPredicate(Domain), g.WithPredicate(Range)...) {
			emit([]graph.Triple{t}, graph.T(t.S, SubPropertyOf, t.S))
		}
	case RuleSubPropReflEdge:
		for _, t := range g.WithPredicate(SubPropertyOf) {
			emit([]graph.Triple{t},
				graph.T(t.S, SubPropertyOf, t.S),
				graph.T(t.O, SubPropertyOf, t.O))
		}
	case RuleSubClassReflObj:
		for _, t := range append(append(g.WithPredicate(Domain), g.WithPredicate(Range)...), g.WithPredicate(Type)...) {
			emit([]graph.Triple{t}, graph.T(t.O, SubClassOf, t.O))
		}
	case RuleSubClassReflEdge:
		for _, t := range g.WithPredicate(SubClassOf) {
			emit([]graph.Triple{t},
				graph.T(t.S, SubClassOf, t.S),
				graph.T(t.O, SubClassOf, t.O))
		}
	}
	return out
}

// AllInstantiations enumerates the instantiations of every rule (2)–(13)
// applicable to g.
func AllInstantiations(g *graph.Graph) []Instantiation {
	var out []Instantiation
	for _, r := range DeductiveRules() {
		out = append(out, Instantiations(g, r)...)
	}
	return out
}
