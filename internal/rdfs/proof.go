package rdfs

import (
	"fmt"

	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
)

// Step is one step of a proof in the sense of Definition 2.5: either an
// application of the existential rule (1) — replacing the current graph
// P_{j-1} by a graph P_j that maps into it — or the addition of the
// conclusions of an instantiation of one of the rules (2)–(13).
type Step struct {
	Rule RuleID

	// Inst is set for rules (2)–(13).
	Inst Instantiation

	// Result and Mu are set for rule (1): Result is P_j and Mu is the
	// map μ : P_j → P_{j-1} required by the rule.
	Result *graph.Graph
	Mu     graph.Map
}

// Proof is a derivation G ⊢ H: a sequence of graphs P_1 = G, …, P_k = H
// connected by Steps (Definition 2.5).
type Proof struct {
	Steps []Step
}

// Len returns the number of steps.
func (p *Proof) Len() int { return len(p.Steps) }

// Verify checks the proof against Definition 2.5: starting from g, each
// step must be a valid rule application, and the final graph must equal
// h (as a set of triples). It returns the verified final graph on
// success.
func (p *Proof) Verify(g, h *graph.Graph) error {
	cur := g.Clone()
	for i, st := range p.Steps {
		switch {
		case st.Rule == RuleExistential:
			if st.Result == nil {
				return fmt.Errorf("rdfs: step %d: existential step missing result graph", i+1)
			}
			if err := st.Mu.Validate(); err != nil {
				return fmt.Errorf("rdfs: step %d: %v", i+1, err)
			}
			if !st.Mu.Apply(st.Result).SubgraphOf(cur) {
				return fmt.Errorf("rdfs: step %d: μ(P_%d) ⊄ P_%d", i+1, i+2, i+1)
			}
			cur = st.Result.Clone()
		default:
			if err := st.Inst.Validate(); err != nil {
				return fmt.Errorf("rdfs: step %d: %v", i+1, err)
			}
			if st.Inst.Rule != st.Rule {
				return fmt.Errorf("rdfs: step %d: rule mismatch %s vs %s", i+1, st.Rule, st.Inst.Rule)
			}
			for _, a := range st.Inst.Antecedents {
				if !cur.Has(a) {
					return fmt.Errorf("rdfs: step %d: antecedent %s not in current graph", i+1, a)
				}
			}
			for _, c := range st.Inst.Conclusions {
				cur.Add(c)
			}
		}
	}
	if !cur.Equal(h) {
		return fmt.Errorf("rdfs: proof derives a graph with %d triples, want H with %d", cur.Len(), h.Len())
	}
	return nil
}

// Saturate returns RDFS-cl(g) by the round-based fixpoint of
// Definition 2.7: every instantiation of rules (2)–(13) over the
// current graph is enumerated, its new conclusions are added, and the
// rounds repeat until none is new. The result shares g's dictionary.
// When derived is non-nil it is called once per triple not in g, in
// derivation order, with the instantiation that first produced it —
// the provenance Prove builds proofs from.
func Saturate(g *graph.Graph, derived func(graph.Triple, Instantiation)) *graph.Graph {
	out := g.Clone()
	for {
		added := false
		for _, inst := range AllInstantiations(out) {
			// All conclusions of a multi-conclusion rule share one
			// instantiation, which is recorded for each new triple.
			for _, c := range inst.Conclusions {
				if out.Add(c) {
					added = true
					if derived != nil {
						derived(c, inst)
					}
				}
			}
		}
		if !added {
			return out
		}
	}
}

// Prove searches for a proof of h from g. It implements the completeness
// direction of Theorem 2.6 constructively: saturate g under rules
// (2)–(13) (this is RDFS-cl(g)), search a map μ : h → RDFS-cl(g), and if
// found emit the rule steps needed to derive the triples in the image of
// μ, followed by a single existential step. The proof is trimmed to the
// steps actually needed (backward reachability over provenance).
func Prove(g, h *graph.Graph) (*Proof, bool) {
	origin := make(map[graph.Triple]Instantiation) // derived (non-input) triples only
	var order []graph.Triple                       // derivation order of derived triples
	cl := Saturate(g, func(t graph.Triple, inst Instantiation) {
		origin[t] = inst
		order = append(order, t)
	})
	mu, ok := hom.FindMap(h, cl)
	if !ok {
		return nil, false
	}

	// Needed derived triples: those in μ(h) that are not in g, plus the
	// provenance closure of their antecedents.
	needed := make(map[graph.Triple]bool)
	var require func(t graph.Triple)
	require = func(t graph.Triple) {
		if g.Has(t) || needed[t] {
			return
		}
		inst, isDerived := origin[t]
		if !isDerived {
			return
		}
		needed[t] = true
		for _, a := range inst.Antecedents {
			require(a)
		}
	}
	mu.Apply(h).Each(func(t graph.Triple) bool {
		require(t)
		return true
	})

	proof := &Proof{}
	emitted := make(map[graph.Triple]bool)
	for _, t := range order { // derivation order respects dependencies
		if !needed[t] || emitted[t] {
			continue
		}
		inst := origin[t]
		proof.Steps = append(proof.Steps, Step{Rule: inst.Rule, Inst: inst})
		for _, c := range inst.Conclusions {
			emitted[c] = true
		}
	}
	proof.Steps = append(proof.Steps, Step{
		Rule:   RuleExistential,
		Result: h.Clone(),
		Mu:     mu,
	})
	return proof, true
}
