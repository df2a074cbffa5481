package experiments

import (
	"fmt"
	"io"

	"semwebdb/internal/containment"
	"semwebdb/internal/cq"
	"semwebdb/internal/entail"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/query"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func init() {
	register(Experiment{
		ID:    "E12",
		Title: "Query vs data complexity (Theorem 6.1)",
		Claim: "emptiness is NP-complete in the query (3SAT) and polynomial in the data (fixed query)",
		Run: func(w io.Writer, cfg Config) error {
			fmt.Fprintln(w, "-- query complexity: random 3SAT at clause ratio 4.3 --")
			tbl := newTable(w, "vars", "clauses", "sat", "solver time")
			for _, n := range pick(cfg, []int{6, 10}, []int{8, 12, 16, 20}) {
				m := int(4.3 * float64(n))
				f := cq.ThreeSATInstance{NumVars: n, Clauses: gen.Random3SAT(n, m, int64(n))}
				var sat bool
				d := timeIt(func() { sat = f.Satisfiable() })
				if sat != f.SatisfiableBruteForce() {
					return fmt.Errorf("3SAT vars=%d: the solver says sat=%v, brute force disagrees", n, sat)
				}
				tbl.row(n, m, checkmark(sat), d)
			}
			tbl.flush()

			fmt.Fprintln(w, "-- data complexity: fixed 2-pattern query, growing database --")
			tbl2 := newTable(w, "|D|", "matchings", "time")
			x, y, z := term.NewVar("X"), term.NewVar("Y"), term.NewVar("Z")
			p := term.NewIRI("urn:semwebdb:enc:e")
			q := query.New(
				[]graph.Triple{{S: x, P: p, O: z}},
				[]graph.Triple{{S: x, P: p, O: y}, {S: y, P: p, O: z}},
			)
			for _, n := range pick(cfg, []int{50, 100}, []int{100, 400, 1600}) {
				d := gen.EncGround(gen.RandomGraph(n, 3*n, int64(n)), "d")
				var a *query.Answer
				dur := timeIt(func() { a, _ = query.Evaluate(q, d, query.Options{}) })
				tbl2.row(d.Len(), a.Matchings, dur)
			}
			tbl2.flush()
			fmt.Fprintln(w, "shape: 3SAT time grows super-polynomially in query size; data sweep grows polynomially.")
			return nil
		},
	})

	register(Experiment{
		ID:    "E13",
		Title: "Redundancy elimination (Theorems 6.2/6.3)",
		Claim: "answer-leanness is coNP-ish under union semantics but polynomial under merge semantics",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "n branches", "singles", "union lean", "merge lean", "agree")
			// Section 6.2 workload: D is lean (each blank X_i carries a
			// distinguishing q-edge), but the projection (?Z,p,?U) ←
			// (?Z,p,?U) forgets the q-edges, so all blank answers
			// collapse onto each other: the answer is maximally
			// redundant even though D and the query are lean.
			a, p, q2 := term.NewIRI("urn:r:a"), term.NewIRI("urn:r:p"), term.NewIRI("urn:r:q")
			z, u := term.NewVar("Z"), term.NewVar("U")
			q := query.New(
				[]graph.Triple{{S: z, P: p, O: u}},
				[]graph.Triple{{S: z, P: p, O: u}},
			)
			for _, n := range pick(cfg, []int{4, 8}, []int{8, 16, 32}) {
				d := graph.New()
				for i := 0; i < n; i++ {
					x := term.NewBlank(fmt.Sprintf("X%d", i))
					d.Add(graph.T(a, p, x))
					d.Add(graph.T(x, q2, term.NewIRI(fmt.Sprintf("urn:r:c%d", i))))
				}
				row, agree := []any{n, 0}, true
				for _, sem := range []query.Semantics{query.UnionSemantics, query.MergeSemantics} {
					ans, err := query.Evaluate(q, d, query.Options{Semantics: sem})
					if err != nil {
						return err
					}
					var lean bool
					dur := timeIt(func() { lean = query.IsLeanAnswer(ans) })
					// The verdict must match the answer's core.
					agree = agree && lean == (query.EliminateRedundancy(ans).Len() == ans.Graph.Len())
					row[1] = len(ans.Singles)
					row = append(row, fmt.Sprintf("%v (%v)", checkmark(lean), dur))
				}
				tbl.row(append(row, checkmark(agree))...)
			}
			tbl.flush()
			fmt.Fprintln(w, "shape: projected answers are non-lean under both semantics; under merge each blank component lies in one single answer, so the search is polynomial (Theorem 6.3).")
			return nil
		},
	})

	register(Experiment{
		ID:    "E14",
		Title: "Containment characterizations (Theorems 5.5/5.6)",
		Claim: "θ-substitution deciders are sound against evaluation; hard instances embed graph entailment",
		Run: func(w io.Writer, cfg Config) error {
			// Theorem 5.6 encoding: q: (a,b,c) ← B with B from enc(C_n);
			// containment ⇔ homomorphism between the cycles.
			a, b, c := term.NewIRI("urn:q:a"), term.NewIRI("urn:q:b"), term.NewIRI("urn:q:c")
			head := []graph.Triple{{S: a, P: b, O: c}}
			toBody := func(g *graph.Graph) []graph.Triple {
				var out []graph.Triple
				for _, t := range g.Triples() {
					s, o := t.S, t.O
					if s.IsBlank() {
						s = term.NewVar("v" + s.Value)
					}
					if o.IsBlank() {
						o = term.NewVar("v" + o.Value)
					}
					out = append(out, graph.Triple{S: s, P: t.P, O: o})
				}
				return out
			}
			tbl := newTable(w, "pair", "⊆p", "expect", "time")
			for _, n := range pick(cfg, []int{3, 4, 5}, []int{3, 5, 7, 9}) {
				// q over C_n, q' over C_{2n}: C_2n → C_n exists (wrap), so
				// q ⊆p q'... containment follows hom direction: q ⊆p q'
				// iff θ(B') ⊆ nf(B) i.e. B' maps into B.
				qn := query.New(head, toBody(gen.Enc(gen.Cycle(n), "x")))
				q2n := query.New(head, toBody(gen.Enc(gen.Cycle(2*n), "y")))
				var d1 containment.Decision
				dur := timeIt(func() { d1, _ = containment.Standard(qn, q2n) })
				// enc(C_2n) maps into enc(C_n) (even wrap), so expected yes.
				tbl.row(fmt.Sprintf("C%d ⊆p C%d-body", n, 2*n), checkmark(d1.Holds), "yes", dur)
				var d2 containment.Decision
				dur2 := timeIt(func() { d2, _ = containment.Standard(q2n, qn) })
				// enc(C_n) odd → no map into enc(C_2n): expected no for odd n.
				expect := "no"
				if n%2 == 0 {
					expect = "yes"
				}
				tbl.row(fmt.Sprintf("C%d ⊆p C%d-body", 2*n, n), checkmark(d2.Holds), expect, dur2)
			}
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "E15",
		Title: "⊆m and ⊆p disagree (Example 5.3)",
		Claim: "the paper's three counterexample pairs behave exactly as stated",
		Run: func(w io.Writer, cfg Config) error {
			vX, vY, vZ := term.NewVar("X"), term.NewVar("Y"), term.NewVar("Z")
			qIRI, p := term.NewIRI("urn:q:q"), term.NewIRI("urn:q:p")
			tbl := newTable(w, "pair", "q⊆m q'", "q'⊆m q", "q⊆p q'", "q'⊆p q")

			// Pair 1: sc-chains with/without the transitive edge.
			b1 := []graph.Triple{{S: vX, P: rdfs.SubClassOf, O: vY}, {S: vY, P: rdfs.SubClassOf, O: vZ}}
			b1p := append(append([]graph.Triple{}, b1...), graph.Triple{S: vX, P: rdfs.SubClassOf, O: vZ})
			q1, q1p := query.New(b1, b1), query.New(b1p, b1p)
			r := func(q, qp *query.Query) (m1, m2, p1, p2 bool) {
				d, _ := containment.Entailment(q, qp)
				m1 = d.Holds
				d, _ = containment.Entailment(qp, q)
				m2 = d.Holds
				d, _ = containment.Standard(q, qp)
				p1 = d.Holds
				d, _ = containment.Standard(qp, q)
				p2 = d.Holds
				return
			}
			m1, m2, p1, p2 := r(q1, q1p)
			tbl.row("rdfs chains", checkmark(m1), checkmark(m2), checkmark(p1), checkmark(p2))

			// Pair 2: q has the constant head, q' the blank head. The
			// paper states q' ⊆m q but q' ⊄p q.
			cst := term.NewIRI("urn:q:c")
			body2 := []graph.Triple{{S: cst, P: qIRI, O: vX}}
			q2 := query.New([]graph.Triple{{S: cst, P: qIRI, O: vX}}, body2)
			q2p := query.New([]graph.Triple{{S: term.NewBlank("Y"), P: qIRI, O: vX}}, body2)
			m1, m2, p1, p2 = r(q2, q2p)
			tbl.row("blank head (q'=blank)", checkmark(m1), checkmark(m2), checkmark(p1), checkmark(p2))

			// Pair 3: q' projects the head; the paper states q' ⊆m q but
			// q' ⊄p q.
			body3 := []graph.Triple{{S: vX, P: qIRI, O: vY}, {S: vZ, P: p, O: vY}}
			q3 := query.New(body3, body3)
			q3p := query.New([]graph.Triple{{S: vZ, P: p, O: vY}}, body3)
			m1, m2, p1, p2 = r(q3, q3p)
			tbl.row("projection (q'=small head)", checkmark(m1), checkmark(m2), checkmark(p1), checkmark(p2))
			tbl.flush()
			fmt.Fprintln(w, "expected per the paper: the q'⊆m q column holds in every row while q'⊆p q fails; pair 1 is ⊆m-mutual.")
			return nil
		},
	})

	register(Experiment{
		ID:    "E16",
		Title: "Premises and the Ω_q rewrite (Theorem 5.8, Propositions 5.9/5.11)",
		Claim: "premise queries decompose into unions of premise-free queries; Ω_q size grows with |B| and |P|",
		Run: func(w io.Writer, cfg Config) error {
			vX, vY := term.NewVar("X"), term.NewVar("Y")
			p, qv, tt, s := term.NewIRI("urn:q:p"), term.NewIRI("urn:q:q"), term.NewIRI("urn:q:t"), term.NewIRI("urn:q:s")
			tbl := newTable(w, "|B|", "|P|", "|Ω_q|", "expansion time", "answers agree")
			for _, nb := range pick(cfg, []int{2, 3}, []int{2, 3, 4}) {
				for _, np := range pick(cfg, []int{2, 4}, []int{2, 4, 8}) {
					body := []graph.Triple{{S: vX, P: qv, O: vY}}
					for i := 1; i < nb; i++ {
						body = append(body, graph.Triple{S: vY, P: tt, O: s})
					}
					prem := graph.New()
					for i := 0; i < np; i++ {
						prem.Add(graph.T(term.NewIRI(fmt.Sprintf("urn:q:a%d", i)), tt, s))
					}
					qq := query.New([]graph.Triple{{S: vX, P: p, O: vY}}, body).WithPremise(prem)
					var omega []*query.Query
					dur := timeIt(func() { omega = containment.PremiseExpansion(qq) })
					// Verify answer agreement on a probe database.
					d := graph.New(
						graph.T(term.NewIRI("urn:q:u"), qv, term.NewIRI("urn:q:a0")),
						graph.T(term.NewIRI("urn:q:u"), qv, term.NewIRI("urn:q:z")),
						graph.T(term.NewIRI("urn:q:z"), tt, s),
					)
					direct, err := query.Evaluate(qq, d, query.Options{})
					if err != nil {
						return err
					}
					union := graph.New()
					for _, qm := range omega {
						a, err := query.Evaluate(qm, d, query.Options{})
						if err != nil {
							return err
						}
						union.AddAll(a.Graph)
					}
					tbl.row(len(body), np, len(omega), dur, checkmark(direct.Graph.Equal(union)))
				}
			}
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "E17",
		Title: "Answer invariance (Proposition 4.5, Theorem 4.6)",
		Claim: "D ≡ D' gives isomorphic answers; D' ⊨ D gives entailed answers; ans∪ ⊨ ans+",
		Run: func(w io.Writer, cfg Config) error {
			rounds := pick(cfg, 8, 25)
			iso, mono, unionMerge := 0, 0, 0
			x, y := term.NewVar("X"), term.NewVar("Y")
			p := term.NewIRI("urn:semwebdb:prop:0")
			q := query.New(
				[]graph.Triple{{S: x, P: term.NewIRI("urn:q:r"), O: y}},
				[]graph.Triple{{S: x, P: p, O: y}},
			)
			for i := 0; i < rounds; i++ {
				d := gen.ArtSchema(4, 3, 6, int64(i))
				dEq := gen.EquivalentRewrite(d, int64(i+51))
				a1, err := query.Evaluate(q, d, query.Options{})
				if err != nil {
					return err
				}
				a2, err := query.Evaluate(q, dEq, query.Options{})
				if err != nil {
					return err
				}
				if hom.Isomorphic(a1.Graph, a2.Graph) {
					iso++
				}
				// Monotonicity: D ∪ extra ⊨ D.
				bigger := graph.Union(d, gen.ArtSchema(3, 2, 3, int64(i+999)))
				a3, err := query.Evaluate(q, bigger, query.Options{})
				if err != nil {
					return err
				}
				if entail.Entails(a3.Graph, a1.Graph) {
					mono++
				}
				// Union entails merge.
				am, err := query.Evaluate(q, d, query.Options{Semantics: query.MergeSemantics})
				if err != nil {
					return err
				}
				if entail.Entails(a1.Graph, am.Graph) {
					unionMerge++
				}
			}
			tbl := newTable(w, "rounds", "nf-invariance (Thm 4.6)", "monotonicity (Prop 4.5.1)", "ans∪ ⊨ ans+ (Prop 4.5.2)")
			tbl.row(rounds, fmt.Sprintf("%d/%d", iso, rounds), fmt.Sprintf("%d/%d", mono, rounds),
				fmt.Sprintf("%d/%d", unionMerge, rounds))
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "A1",
		Title: "Ablation: index configurations",
		Claim: "double-position indexes beat predicate-only beat full scans on selective patterns",
		Run: func(w io.Writer, cfg Config) error {
			n := pick(cfg, 2000, 20000)
			g := gen.EncGround(gen.RandomGraph(n/10, n, 17), "d")
			patterns := []graph.Triple{
				{S: term.NewVar("X"), P: gen.EdgePredicate, O: term.NewVar("Y")},
				{S: term.NewVar("Y"), P: gen.EdgePredicate, O: term.NewVar("Z")},
				{S: term.NewVar("Z"), P: gen.EdgePredicate, O: term.NewVar("W")},
			}
			tbl := newTable(w, "index mode", "solutions", "time")
			for _, mode := range []struct {
				name string
				m    match.IndexMode
			}{
				{"full (S,P,O,SP,PO,SO)", match.FullIndexes},
				{"predicate-only", match.PredicateOnly},
				{"scan-only", match.ScanOnly},
			} {
				ix := match.NewIndexMode(g, mode.m)
				count := 0
				dur := timeIt(func() {
					match.NewSolver(ix, match.Options{}).Solve(patterns, func(match.Binding) bool {
						count++
						return count < 5000
					})
				})
				tbl.row(mode.name, count, dur)
			}
			tbl.flush()
			return nil
		},
	})
}
