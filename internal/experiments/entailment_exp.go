package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"semwebdb/internal/closure"
	"semwebdb/internal/cq"
	"semwebdb/internal/entail"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/mt"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func randomSimplePair(rng *rand.Rand, n1, n2 int) (*graph.Graph, *graph.Graph) {
	names := []term.Term{
		term.NewIRI("urn:x:a"), term.NewIRI("urn:x:b"), term.NewIRI("urn:x:c"),
		term.NewBlank("x"), term.NewBlank("y"), term.NewBlank("z"),
	}
	preds := []term.Term{term.NewIRI("urn:x:p"), term.NewIRI("urn:x:q")}
	mk := func(n int) *graph.Graph {
		g := graph.New()
		for k := 0; k < n; k++ {
			g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		return g
	}
	return mk(n1), mk(n2)
}

func randomRDFSPair(rng *rand.Rand, n1, n2 int) (*graph.Graph, *graph.Graph) {
	names := []term.Term{
		term.NewIRI("urn:x:a"), term.NewIRI("urn:x:b"), term.NewBlank("x"), term.NewBlank("y"),
	}
	preds := []term.Term{
		term.NewIRI("urn:x:p"), rdfs.SubClassOf, rdfs.SubPropertyOf, rdfs.Type, rdfs.Domain, rdfs.Range,
	}
	mk := func(n int) *graph.Graph {
		g := graph.New()
		for k := 0; k < n; k++ {
			g.Add(graph.T(names[rng.Intn(len(names))], preds[rng.Intn(len(preds))], names[rng.Intn(len(names))]))
		}
		return g
	}
	return mk(n1), mk(n2)
}

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Entailment characterizations agree (Theorem 2.8)",
		Claim: "G1 ⊨ G2 iff a map G2 → RDFS-cl(G1) exists; three decision paths (map, proof, canonical model) coincide",
		Run: func(w io.Writer, cfg Config) error {
			rng := rand.New(rand.NewSource(101))
			rounds := pick(cfg, 40, 300)
			tbl := newTable(w, "family", "rounds", "entailed", "refuted", "map=proof", "map=model")
			for _, fam := range []string{"simple", "rdfs"} {
				entailed, refuted, agreeProof, agreeModel := 0, 0, 0, 0
				for i := 0; i < rounds; i++ {
					var g1, g2 *graph.Graph
					if fam == "simple" {
						g1, g2 = randomSimplePair(rng, 6, 3)
					} else {
						g1, g2 = randomRDFSPair(rng, 6, 2)
					}
					viaMap := entail.Entails(g1, g2)
					_, viaProof := rdfs.Prove(g1, g2)
					viaModel := mt.CanonicalEntails(g1, g2)
					if viaMap {
						entailed++
					} else {
						refuted++
					}
					if viaMap == viaProof {
						agreeProof++
					}
					if viaMap == viaModel {
						agreeModel++
					}
				}
				tbl.row(fam, rounds, entailed, refuted,
					fmt.Sprintf("%d/%d", agreeProof, rounds),
					fmt.Sprintf("%d/%d", agreeModel, rounds))
			}
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "E2",
		Title: "Simple entailment is graph homomorphism (Theorem 2.9)",
		Claim: "NP-complete via 3-colorability: easy yes-instances stay fast, unsatisfiable clique instances blow up exponentially",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "instance", "|G2| triples", "entails", "time")
			// Easy: cycles into K3.
			for _, n := range pick(cfg, []int{8, 16}, []int{16, 64, 256}) {
				src, dst := gen.ThreeColorabilityInstance(gen.Cycle(n))
				var got bool
				d := timeIt(func() { got = entail.SimpleEntails(dst, src) })
				tbl.row(fmt.Sprintf("enc(C%d) → K3", n), src.Len(), checkmark(got), d)
			}
			// Hard: K_{n} (blank) into K_{n-1}: unsatisfiable, forces
			// exhaustive search.
			for _, n := range pick(cfg, []int{4, 5}, []int{5, 6, 7}) {
				src := gen.Enc(gen.Clique(n), "v")
				dst := gen.EncGround(gen.Clique(n-1), "k")
				var got bool
				d := timeIt(func() { got = entail.SimpleEntails(dst, src) })
				tbl.row(fmt.Sprintf("enc(K%d) → K%d", n, n-1), src.Len(), checkmark(got), d)
			}
			tbl.flush()
			fmt.Fprintln(w, "shape: yes-instances polynomial; unsatisfiable clique family grows super-polynomially (NP-hardness).")
			return nil
		},
	})

	register(Experiment{
		ID:    "E3",
		Title: "RDFS entailment has polynomial witnesses (Theorem 2.10)",
		Claim: "closure + map yields an NP witness; closure computation scales polynomially in |G|",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "|G|", "|cl(G)|", "closure time", "check time", "entails")
			for _, n := range pick(cfg, []int{20, 40}, []int{50, 100, 200, 400}) {
				g := gen.ArtSchema(n/4, n/8+1, n, 42)
				var cl *graph.Graph
				dCl := timeIt(func() { cl = closure.RDFSCl(g) })
				// Consequence: the deepest individual typed at the root
				// class.
				h := graph.New(graph.T(
					term.NewIRI("urn:semwebdb:ind:1"), rdfs.Type, term.NewIRI("urn:semwebdb:Class:0")))
				var ok bool
				dCheck := timeIt(func() { ok = hom.ExistsMap(h, cl) })
				tbl.row(g.Len(), cl.Len(), dCl, dCheck, checkmark(ok))
			}
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "E4",
		Title: "Acyclic bodies evaluate in polynomial time (Section 2.4)",
		Claim: "blank-cycle-free G2 → acyclic CQ → Yannakakis polynomial; cyclic bodies fall back to exponential-worst-case search",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "body", "cycle-free", "Yannakakis", "solver", "agree")
			// Bipartite data (the double cover of a random graph): it has
			// NO odd cycles, so odd-length cyclic bodies are
			// unsatisfiable and force the solver's search to exhaust,
			// while chains of any length stay easy for Yannakakis.
			base := gen.RandomGraph(pick(cfg, 20, 60), pick(cfg, 40, 120), 7)
			bip := gen.StdGraph{N: 2 * base.N}
			for _, e := range base.Edges {
				bip.Edges = append(bip.Edges,
					[2]int{e[0], base.N + e[1]}, [2]int{base.N + e[1], e[0]},
					[2]int{e[1], base.N + e[0]}, [2]int{base.N + e[0], e[1]})
			}
			data := gen.EncGround(bip, "d")
			ix := match.NewIndex(data)
			finder := hom.NewFinder(ix)
			for _, n := range pick(cfg, []int{5, 7}, []int{5, 7, 9}) {
				for _, cyclic := range []bool{false, true} {
					var body *graph.Graph
					name := ""
					if cyclic {
						body = gen.BlankCycleBody(n)
						name = fmt.Sprintf("odd cycle(%d)", n)
					} else {
						body = gen.BlankChainBody(n)
						name = fmt.Sprintf("chain(%d)", n)
					}
					yTime := "n/a"
					var yOK, sOK bool
					var yErr error
					free := cq.BlankCycleFree(body)
					if free {
						yTime = timeIt(func() { yOK, yErr = cq.Yannakakis(ix, body) }).String()
						if yErr != nil {
							return fmt.Errorf("%s is blank-cycle-free but GYO rejects it: %w", name, yErr)
						}
					}
					sTime := timeIt(func() { _, sOK = finder.Find(body) })
					if free && yOK != sOK {
						return fmt.Errorf("%s: Yannakakis says %v, the solver %v", name, yOK, sOK)
					}
					if cyclic && sOK {
						return fmt.Errorf("%s maps into bipartite data", name)
					}
					tbl.row(name, checkmark(free), yTime, sTime, checkmark(!free || yOK == sOK))
				}
			}
			tbl.flush()
			fmt.Fprintln(w, "shape: chains stay polynomial via Yannakakis; unsatisfiable odd cycles make the solver exhaust.")
			return nil
		},
	})

	register(Experiment{
		ID:    "E11",
		Title: "Soundness and completeness of the deductive system (Theorem 2.6)",
		Claim: "G ⊢ H iff G ⊨ H; every produced proof verifies; foreign models never refute a proved entailment",
		Run: func(w io.Writer, cfg Config) error {
			rng := rand.New(rand.NewSource(113))
			rounds := pick(cfg, 30, 200)
			proved, verified, agree, foreignOK, foreignChecked := 0, 0, 0, 0, 0
			for i := 0; i < rounds; i++ {
				g1, g2 := randomRDFSPair(rng, 6, 2)
				proof, syntactic := rdfs.Prove(g1, g2)
				semantic := mt.CanonicalEntails(g1, g2)
				if syntactic == semantic {
					agree++
				}
				if syntactic {
					proved++
					if proof.Verify(g1, g2) == nil {
						verified++
					}
					// Foreign-model soundness probe: the canonical model
					// of K ∪ G1 satisfies G1 by construction and must
					// also satisfy the proved consequence G2.
					k, _ := randomRDFSPair(rng, 8, 0)
					m := mt.CanonicalModel(graph.Union(k, g1))
					if m.SatisfiesSimple(g1) {
						foreignChecked++
						if m.SatisfiesSimple(g2) {
							foreignOK++
						}
					}
				}
			}
			tbl := newTable(w, "rounds", "⊢=⊨", "proved", "proofs verified", "foreign-model soundness")
			tbl.row(rounds, fmt.Sprintf("%d/%d", agree, rounds), proved,
				fmt.Sprintf("%d/%d", verified, proved),
				fmt.Sprintf("%d/%d", foreignOK, foreignChecked))
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "A3",
		Title: "Ablation: variable-ordering heuristic in the matcher",
		Claim: "most-constrained-first ordering prunes hard homomorphism searches",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "instance", "with heuristic", "without (given order)")
			for _, n := range pick(cfg, []int{4, 5}, []int{5, 6}) {
				src := gen.Enc(gen.Clique(n), "v")
				dst := gen.EncGround(gen.Clique(n-1), "k")
				// Append an unsatisfiable pattern at the end of the given
				// order so NoReorder pays the full price.
				pats := append(src.Triples(), graph.T(
					term.NewBlank("v0"), term.NewIRI("urn:none"), term.NewBlank("v1")))
				isUnknown := func(x term.Term) bool { return x.IsBlank() }
				run := func(noReorder bool) string {
					opts := match.Options{IsUnknown: isUnknown, NoReorder: noReorder}
					return timeIt(func() {
						match.Solve(pats, dst, opts, func(match.Binding) bool { return false })
					}).String()
				}
				tbl.row(fmt.Sprintf("K%d→K%d + dead pattern", n, n-1), run(false), run(true))
			}
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "A2",
		Title: "Ablation: semi-naive vs naive closure computation",
		Claim: "delta-driven saturation beats round-based re-derivation",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "chain n", "|cl|", "semi-naive", "naive", "equal")
			for _, n := range pick(cfg, []int{16, 32}, []int{32, 64, 128}) {
				g := gen.ScChain(n)
				var fast, slow *graph.Graph
				dFast := timeIt(func() { fast = closure.RDFSCl(g) })
				dSlow := timeIt(func() { slow = closure.NaiveRDFSCl(g) })
				tbl.row(n, fast.Len(), dFast, dSlow, checkmark(fast.Equal(slow)))
			}
			tbl.flush()
			return nil
		},
	})
}
