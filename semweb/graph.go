package semweb

import (
	"context"
	"io"
	"strings"

	"semwebdb/internal/canon"
	"semwebdb/internal/closure"
	"semwebdb/internal/core"
	"semwebdb/internal/entail"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/ntriples"
	"semwebdb/internal/rdfio"
	"semwebdb/internal/rdfs"
	"semwebdb/internal/turtle"
)

// Triple is an RDF triple (s, p, o). It is a comparable value type.
type Triple = graph.Triple

// Graph is a finite set of RDF triples, the paper's notion of an RDF
// graph. The zero value is not ready to use; construct with NewGraph or
// one of the parsers.
type Graph = graph.Graph

// Map is a blank-node homomorphism μ : UB → UBL fixing IRIs and
// literals — the paper's "map" (Section 2.1).
type Map = graph.Map

// T constructs the triple (s, p, o).
func T(s, p, o Term) Triple { return graph.T(s, p, o) }

// NewGraph returns a graph holding the given triples. Ill-formed
// triples are silently dropped, mirroring the set semantics of the
// model; use DB.Add when rejection must be observable.
func NewGraph(ts ...Triple) *Graph { return graph.New(ts...) }

// GraphUnion returns G1 ∪ G2: blank nodes of the same name are shared.
func GraphUnion(g1, g2 *Graph) *Graph { return graph.Union(g1, g2) }

// GraphMerge returns G1 + G2: the union after renaming the blank nodes
// of G2 apart from those of G1.
func GraphMerge(g1, g2 *Graph) *Graph { return graph.Merge(g1, g2) }

// ParseNTriples parses an N-Triples document. Syntax errors are
// reported as *ParseError with line and column information.
func ParseNTriples(src string) (*Graph, error) {
	g, err := ntriples.ParseString(src)
	return g, convertParseError("", err)
}

// ReadNTriples parses an N-Triples document from a reader.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g, err := ntriples.Parse(r)
	return g, convertParseError("", err)
}

// ParseTurtle parses a Turtle document (prefixes, 'a', object and
// predicate lists, blank node property lists). Syntax errors are
// reported as *ParseError.
func ParseTurtle(src string) (*Graph, error) {
	g, err := turtle.Parse(src)
	return g, convertParseError("", err)
}

// ReadTurtle parses a Turtle document from a reader.
func ReadTurtle(r io.Reader) (*Graph, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, err
	}
	return ParseTurtle(sb.String())
}

// LoadGraph reads an RDF file, choosing the syntax by extension (".ttl"
// and ".turtle" parse as Turtle, everything else as N-Triples); the
// path "-" reads N-Triples from standard input.
func LoadGraph(path string) (*Graph, error) {
	g, err := rdfio.Load(path)
	return g, convertParseError(path, err)
}

// WriteNTriples writes g as canonical (sorted) N-Triples.
func WriteNTriples(w io.Writer, g *Graph) error {
	return ntriples.Serialize(w, g)
}

// NTriples returns the canonical N-Triples serialization of g.
func NTriples(g *Graph) string { return ntriples.SerializeString(g) }

// Isomorphic reports G1 ≅ G2: a blank-renaming bijection carrying G1
// exactly onto G2 (Section 2.1).
func Isomorphic(g1, g2 *Graph) bool { return hom.Isomorphic(scratchView(g1), scratchView(g2)) }

// FindMap returns a map μ with μ(src) ⊆ dst, if one exists — the
// homomorphism primitive behind the entailment characterization of
// Theorem 2.8.
func FindMap(src, dst *Graph) (Map, bool) { return hom.FindMap(src, dst) }

// Canonicalize returns g with its blank nodes relabelled _:c0, _:c1, …
// in a canonical order: two graphs are isomorphic iff their
// canonicalizations are equal, so the result is an isomorphism
// certificate.
func Canonicalize(g *Graph) *Graph { return canon.Canonicalize(scratchView(g)) }

// IsSimple reports whether g is a simple RDF graph (Definition 2.2): it
// mentions none of the rdfs-vocabulary.
func IsSimple(g *Graph) bool { return rdfs.IsSimple(g) }

// Entails reports g ⊨ h under the RDFS semantics (Theorem 2.8: a map
// h → cl(g) exists). The search honors ctx cancellation; on
// cancellation the error wraps ErrCancelled.
func Entails(ctx context.Context, g, h *Graph) (bool, error) {
	ok, err := entail.EntailsCtx(ctx, scratchView(g), h)
	return ok, wrapEngineError(err)
}

// Equivalent reports g ≡ h, i.e. g ⊨ h and h ⊨ g.
func Equivalent(ctx context.Context, g, h *Graph) (bool, error) {
	ok, err := entail.EquivalentCtx(ctx, scratchView(g), scratchView(h))
	return ok, wrapEngineError(err)
}

// Prove decides g ⊨ h and, when it holds, returns a checked derivation
// in the deductive system of Section 2.3.2 (Definition 2.5).
func Prove(g, h *Graph) (*Proof, bool) { return rdfs.Prove(scratchView(g), scratchView(h)) }

// Closure returns cl(g), the closure of Definition 3.5: every triple
// RDFS-entailed by g that is well formed over g's universe.
func Closure(ctx context.Context, g *Graph) (*Graph, error) {
	cl, err := closure.RDFSClCtx(ctx, scratchView(g))
	return cl, wrapEngineError(err)
}

// CoreOf returns core(g): the unique (up to isomorphism) lean retract
// of g (Theorem 3.10). The computation is coNP-hard in general
// (Theorem 3.12); pass a cancellable ctx for adversarial inputs.
func CoreOf(ctx context.Context, g *Graph) (*Graph, error) {
	c, _, err := core.CoreCtx(ctx, scratchView(g))
	return c, wrapEngineError(err)
}

// NormalForm returns nf(g) = core(cl(g)) (Definition 3.18) — the unique
// syntax-independent normal form of Theorem 3.19.
func NormalForm(ctx context.Context, g *Graph) (*Graph, error) {
	nf, err := core.NormalFormCtx(ctx, scratchView(g))
	return nf, wrapEngineError(err)
}

// SameNormalForm reports nf(g) ≅ nf(h), which by Theorem 3.19 decides
// g ≡ h.
func SameNormalForm(ctx context.Context, g, h *Graph) (bool, error) {
	nfg, err := NormalForm(ctx, g)
	if err != nil {
		return false, err
	}
	nfh, err := NormalForm(ctx, h)
	if err != nil {
		return false, err
	}
	return hom.Isomorphic(nfg, nfh), nil
}

// IsLean reports whether g is lean (Definition 3.7): no map sends g to
// a proper subgraph of itself. The search reads g's own index and
// interns nothing, so the permutation it sorts stays cached on g for
// the next call.
func IsLean(ctx context.Context, g *Graph) (bool, error) {
	lean, err := core.IsLeanCtx(ctx, g)
	return lean, wrapEngineError(err)
}

// RestrictedClassError reports that a graph falls outside the
// restricted class of Theorem 3.16, where minimal representations are
// not unique (Examples 3.14 and 3.15). Match with errors.As.
type RestrictedClassError = core.ErrNotInRestrictedClass

// MinimalRepresentation returns the unique minimal graph equivalent to
// g and contained in it (Theorem 3.16). It fails with a
// *RestrictedClassError when g falls outside the theorem's restricted
// class, where uniqueness fails.
func MinimalRepresentation(g *Graph) (*Graph, error) {
	return core.MinimalRepresentation(g)
}

// Fingerprint returns a total equivalence certificate: the canonical
// serialization of nf(g). Two graphs are semantically equivalent iff
// their fingerprints are equal strings.
func Fingerprint(ctx context.Context, g *Graph) (string, error) {
	fp, err := core.FingerprintCtx(ctx, scratchView(g))
	return fp, wrapEngineError(err)
}
