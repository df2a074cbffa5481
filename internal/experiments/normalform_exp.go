package experiments

import (
	"fmt"
	"io"
	"time"

	"semwebdb/internal/closure"
	"semwebdb/internal/core"
	"semwebdb/internal/entail"
	"semwebdb/internal/gen"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/term"
)

func init() {
	register(Experiment{
		ID:    "E5",
		Title: "Closure size and membership (Theorem 3.6)",
		Claim: "|cl(G)| = Θ(|G|²) on sc-chains; membership decidable without materialization, and faster",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "n (sc edges)", "|cl(G)|", "|cl|/n²", "materialize", "member (fast)", "member agree")
			for _, n := range pick(cfg, []int{16, 32, 64}, []int{32, 64, 128, 256}) {
				g := gen.ScChain(n + 1)
				var cl *graph.Graph
				dMat := timeIt(func() { cl = closure.RDFSCl(g) })
				mem := closure.NewMembership(g)
				probe := graph.T(
					term.NewIRI("urn:semwebdb:c:1"), rdfs.SubClassOf,
					term.NewIRI(fmt.Sprintf("urn:semwebdb:c:%d", n+1)))
				var ok bool
				dMem := timeIt(func() {
					for i := 0; i < 100; i++ {
						ok = mem.Contains(probe)
					}
				}) / 100
				agree := ok == cl.Has(probe)
				ratio := float64(cl.Len()) / float64(n*n)
				tbl.row(n, cl.Len(), fmt.Sprintf("%.3f", ratio), dMat, dMem, checkmark(agree))
			}
			tbl.flush()
			fmt.Fprintln(w, "shape: |cl|/n² converges to a constant (≈0.5 from the n(n+1)/2 sc pairs).")
			return nil
		},
	})

	register(Experiment{
		ID:    "E6",
		Title: "Naive closures are not unique (Example 3.2, Lemma 3.3)",
		Claim: "the example graph admits two incomparable maximal equivalent extensions, both containing RDFS-cl(G)",
		Run: func(w io.Writer, cfg Config) error {
			// Example 3.2: c --p--> X --p--> d? The paper's graph: a, X
			// with p-edges and q/r edges to d such that (X,r,d) and
			// (X,q,d) are separately addable but not together.
			p, q, r := term.NewIRI("urn:e:p"), term.NewIRI("urn:e:q"), term.NewIRI("urn:e:r")
			a, c, b, d := term.NewIRI("urn:e:a"), term.NewIRI("urn:e:c"), term.NewIRI("urn:e:b"), term.NewIRI("urn:e:d")
			x := term.NewBlank("X")
			g := graph.New(
				graph.T(a, p, c),
				graph.T(a, p, x),
				graph.T(a, p, b),
				graph.T(c, r, d),
				graph.T(b, q, d),
			)
			ext1 := graph.Union(g, graph.New(graph.T(x, r, d)))
			ext2 := graph.Union(g, graph.New(graph.T(x, q, d)))
			both := graph.Union(ext1, ext2)
			tbl := newTable(w, "candidate", "≡ G", "remark")
			tbl.row("G + (X,r,d)", checkmark(entail.Equivalent(g, ext1)), "X collapses onto c")
			tbl.row("G + (X,q,d)", checkmark(entail.Equivalent(g, ext2)), "X collapses onto b")
			tbl.row("G + both", checkmark(entail.Equivalent(g, both)), "must be NO: X would need both edges")
			tbl.flush()
			if !entail.Equivalent(g, ext1) || !entail.Equivalent(g, ext2) || entail.Equivalent(g, both) {
				return fmt.Errorf("Example 3.2 behaves unexpectedly")
			}
			// Lemma 3.3: RDFS-cl(G) is contained in any such extension.
			cl := closure.RDFSCl(g)
			fmt.Fprintf(w, "RDFS-cl(G) ⊆ both extensions' closures: %s\n",
				checkmark(cl.SubgraphOf(closure.RDFSCl(ext1)) && cl.SubgraphOf(closure.RDFSCl(ext2))))
			return nil
		},
	})

	register(Experiment{
		ID:    "E7",
		Title: "Cores are unique up to isomorphism (Theorems 3.10/3.11)",
		Claim: "independent core computations on redundancy-injected graphs agree; equivalence iff isomorphic cores",
		Run: func(w io.Writer, cfg Config) error {
			rounds := pick(cfg, 10, 40)
			tbl := newTable(w, "rounds", "kernel", "redundant", "unique cores", "≡ iff ≅ cores", "avg time")
			nk, nr := pick(cfg, 5, 10), pick(cfg, 8, 25)
			unique, equivIff := 0, 0
			var total time.Duration
			for i := 0; i < rounds; i++ {
				g := gen.RedundantGraph(nk, nr, int64(i))
				var c1, c2 *graph.Graph
				total += timeIt(func() { c1, _ = core.Core(g) })
				c2, _ = core.Core(g.Clone())
				if hom.Isomorphic(c1, c2) {
					unique++
				}
				// A second, differently-seeded graph over the same kernel
				// is equivalent; one with a different kernel is not.
				same := gen.RedundantGraph(nk, nr, int64(i+1000))
				diff := gen.RedundantGraph(nk+1, nr, int64(i))
				cSame, _ := core.Core(same)
				cDiff, _ := core.Core(diff)
				if hom.Isomorphic(c1, cSame) == entail.Equivalent(g, same) &&
					hom.Isomorphic(c1, cDiff) == entail.Equivalent(g, diff) {
					equivIff++
				}
			}
			tbl.row(rounds, nk, nr, fmt.Sprintf("%d/%d", unique, rounds),
				fmt.Sprintf("%d/%d", equivIff, rounds), (total / time.Duration(rounds)).Round(time.Microsecond))
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "E8",
		Title: "Leanness is coNP-complete (Theorem 3.12)",
		Claim: "lean checking on enc(H) instances scales with the homomorphism search; even cycles fold, odd cycles are lean",
		Run: func(w io.Writer, cfg Config) error {
			tbl := newTable(w, "instance", "triples", "lean", "time")
			for _, n := range pick(cfg, []int{5, 6, 9, 10}, []int{7, 8, 11, 12, 15, 16}) {
				g := gen.Enc(gen.Cycle(n), "v")
				var isLean bool
				d := timeIt(func() { isLean = core.IsLean(g) })
				wantLean := n%2 == 1 // odd symmetric cycles are cores
				status := checkmark(isLean)
				if isLean != wantLean {
					status += " (UNEXPECTED)"
				}
				tbl.row(fmt.Sprintf("enc(C%d)", n), g.Len(), status, d)
			}
			tbl.flush()
			fmt.Fprintln(w, "shape: even cycles retract onto an edge (not lean); odd cycles are their own cores.")
			return nil
		},
	})

	register(Experiment{
		ID:    "E9",
		Title: "Minimal representations (Examples 3.14/3.15, Theorem 3.16)",
		Claim: "non-unique outside the restricted class; inside it the algorithm matches brute-force minimum subsets",
		Run: func(w io.Writer, cfg Config) error {
			// Example 3.14.
			spv := rdfs.SubPropertyOf
			a, b, c := term.NewIRI("urn:e:a"), term.NewIRI("urn:e:b"), term.NewIRI("urn:e:c")
			ex314 := graph.New(
				graph.T(b, spv, c), graph.T(c, spv, b),
				graph.T(b, spv, a), graph.T(c, spv, a),
			)
			_, err314 := core.MinimalRepresentation(ex314)
			m1 := ex314.Without(graph.T(b, spv, a))
			m2 := ex314.Without(graph.T(c, spv, a))
			tbl := newTable(w, "case", "result")
			tbl.row("Ex 3.14 rejected (cyclic sp)", checkmark(err314 != nil))
			tbl.row("Ex 3.14 both reductions ≡ G", checkmark(entail.Equivalent(ex314, m1) && entail.Equivalent(ex314, m2)))
			tbl.row("Ex 3.14 reductions non-isomorphic", checkmark(!hom.Isomorphic(m1, m2)))

			// Example 3.15.
			x := term.NewIRI("urn:e:x")
			ex315 := graph.New(
				graph.T(a, rdfs.SubClassOf, b),
				graph.T(rdfs.Type, rdfs.Domain, a),
				graph.T(x, rdfs.Type, a),
				graph.T(x, rdfs.Type, b),
			)
			_, err315 := core.MinimalRepresentation(ex315)
			g1 := ex315.Without(graph.T(x, rdfs.Type, b))
			g2 := ex315.Without(graph.T(x, rdfs.Type, a))
			tbl.row("Ex 3.15 rejected (vocab in subject)", checkmark(err315 != nil))
			tbl.row("Ex 3.15 both reductions ≡ G", checkmark(entail.Equivalent(ex315, g1) && entail.Equivalent(ex315, g2)))

			// Restricted class: algorithm vs brute force.
			rounds := pick(cfg, 8, 20)
			okCount, applicable := 0, 0
			for i := 0; i < rounds; i++ {
				g := gen.ArtSchema(3, 2, 3, int64(i))
				m, err := core.MinimalRepresentation(g)
				if err != nil {
					continue
				}
				applicable++
				if bruteForceMinimalSize(g) == m.Len() && entail.Equivalent(g, m) {
					okCount++
				}
			}
			tbl.row(fmt.Sprintf("Thm 3.16 algorithm = brute force (%d graphs)", applicable),
				fmt.Sprintf("%d/%d", okCount, applicable))
			tbl.flush()
			return nil
		},
	})

	register(Experiment{
		ID:    "E10",
		Title: "Normal forms are syntax independent (Example 3.17, Theorem 3.19)",
		Claim: "nf(G) ≅ nf(H) for every equivalent rewrite H of G, while closures and cores differ",
		Run: func(w io.Writer, cfg Config) error {
			// Example 3.17 first.
			a, b, c := term.NewIRI("urn:e:a"), term.NewIRI("urn:e:b"), term.NewIRI("urn:e:c")
			n := term.NewBlank("N")
			G := graph.New(
				graph.T(a, rdfs.SubClassOf, b), graph.T(b, rdfs.SubClassOf, c),
				graph.T(a, rdfs.SubClassOf, n), graph.T(n, rdfs.SubClassOf, c),
			)
			H := graph.New(
				graph.T(a, rdfs.SubClassOf, b), graph.T(b, rdfs.SubClassOf, c),
				graph.T(a, rdfs.SubClassOf, c),
			)
			tbl := newTable(w, "check", "result")
			tbl.row("Ex 3.17: G ≡ H", checkmark(entail.Equivalent(G, H)))
			tbl.row("Ex 3.17: cl(G) ≇ cl(H)", checkmark(!hom.Isomorphic(closure.RDFSCl(G), closure.RDFSCl(H))))
			tbl.row("Ex 3.17: nf(G) ≅ nf(H)", checkmark(hom.Isomorphic(core.NormalForm(G), core.NormalForm(H))))

			// Randomized rewrites.
			rounds := pick(cfg, 8, 30)
			ok := 0
			var total time.Duration
			for i := 0; i < rounds; i++ {
				g := gen.ArtSchema(5, 3, 6, int64(i))
				rw := gen.EquivalentRewrite(g, int64(i*7+1))
				var same bool
				total += timeIt(func() { same = core.SameNormalForm(g, rw) })
				if same {
					ok++
				}
			}
			tbl.row(fmt.Sprintf("random rewrites nf-invariant (%d rounds, avg %v)",
				rounds, (total/time.Duration(rounds)).Round(time.Microsecond)),
				fmt.Sprintf("%d/%d", ok, rounds))
			tbl.flush()
			return nil
		},
	})
}

// bruteForceMinimalSize finds the minimum size of an equivalent subgraph.
func bruteForceMinimalSize(g *graph.Graph) int {
	ts := g.Triples()
	n := len(ts)
	best := n
	for mask := 0; mask < 1<<n; mask++ {
		bits := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				bits++
			}
		}
		if bits >= best {
			continue
		}
		sub := graph.New()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub.Add(ts[i])
			}
		}
		if entail.Entails(sub, g) {
			best = bits
		}
	}
	return best
}
