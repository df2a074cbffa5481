// Package query implements the RDF query language of Section 4 of the
// paper: tableau queries (H, B) extended with premises P and constraints
// C (Definition 4.1), matchings against the normal form of the database
// (Definition 4.3, Note 4.4), Skolem functions for blank nodes in query
// heads, and both answer semantics — union ans∪ and merge ans+ — together
// with the redundancy-elimination procedures of Section 6.2.
package query

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"semwebdb/internal/closure"
	"semwebdb/internal/core"
	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

// Query is a tableau (H, B) plus a premise graph P and a constraint set C
// (Definition 4.1). H and B are graphs with some positions replaced by
// variables; B has no blank nodes; every variable of H occurs in B; C is
// a set of variables of H whose bindings must be non-blank (the paper's
// IS NOT NULL analogue).
type Query struct {
	Head        []graph.Triple
	Body        []graph.Triple
	Premise     *graph.Graph
	Constraints map[term.Term]bool
}

// New builds a query with empty premise and constraints.
func New(head, body []graph.Triple) *Query {
	return &Query{
		Head:        head,
		Body:        body,
		Premise:     graph.New(),
		Constraints: map[term.Term]bool{},
	}
}

// WithPremise sets the premise graph and returns the query.
func (q *Query) WithPremise(p *graph.Graph) *Query {
	q.Premise = p
	return q
}

// WithConstraints adds constrained variables and returns the query.
func (q *Query) WithConstraints(vars ...term.Term) *Query {
	for _, v := range vars {
		q.Constraints[v] = true
	}
	return q
}

// Identity returns the identity query (Note 4.7):
// (?X,?Y,?Z) ← (?X,?Y,?Z). Under union semantics it returns a graph
// equivalent to the database.
func Identity() *Query {
	x, y, z := term.NewVar("X"), term.NewVar("Y"), term.NewVar("Z")
	pat := []graph.Triple{{S: x, P: y, O: z}}
	return New(pat, pat)
}

// varsIn collects the distinct variables of a pattern list, sorted.
func varsIn(ts []graph.Triple) []term.Term {
	set := map[term.Term]struct{}{}
	for _, t := range ts {
		for _, x := range t.Terms() {
			if x.IsVar() {
				set[x] = struct{}{}
			}
		}
	}
	out := make([]term.Term, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// headBlanks collects the blank nodes of the head, sorted.
func (q *Query) headBlanks() []term.Term {
	set := map[term.Term]struct{}{}
	for _, t := range q.Head {
		for _, x := range t.Terms() {
			if x.IsBlank() {
				set[x] = struct{}{}
			}
		}
	}
	out := make([]term.Term, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Validate checks the well-formedness conditions of Definition 4.1 and
// Note 4.2: body without blanks, head variables covered by the body,
// premise without variables, constraints over head variables.
func (q *Query) Validate() error {
	bodyVars := map[term.Term]bool{}
	for _, v := range varsIn(q.Body) {
		bodyVars[v] = true
	}
	for _, t := range q.Body {
		for _, x := range t.Terms() {
			if x.IsBlank() {
				return validationErrorf("blank node %s in body (use a variable)", x)
			}
		}
	}
	headVars := map[term.Term]bool{}
	for _, v := range varsIn(q.Head) {
		headVars[v] = true
		if !bodyVars[v] {
			return validationErrorf("head variable %s does not occur in body", v)
		}
	}
	if q.Premise != nil {
		ill := false
		q.Premise.Each(func(t graph.Triple) bool {
			if t.HasVar() {
				ill = true
				return false
			}
			return true
		})
		if ill {
			return validationErrorf("premise must not contain variables")
		}
	}
	for v := range q.Constraints {
		if !v.IsVar() {
			return validationErrorf("constraint on non-variable %s", v)
		}
		if !headVars[v] {
			return validationErrorf("constraint variable %s does not occur in head", v)
		}
	}
	return nil
}

// String renders the query in the paper's tableau notation H ← B.
func (q *Query) String() string {
	var b strings.Builder
	part := func(ts []graph.Triple) string {
		ss := make([]string, len(ts))
		for i, t := range ts {
			ss[i] = "(" + t.S.String() + ", " + t.P.String() + ", " + t.O.String() + ")"
		}
		return strings.Join(ss, ", ")
	}
	b.WriteString(part(q.Head))
	b.WriteString(" ← ")
	b.WriteString(part(q.Body))
	if q.Premise != nil && q.Premise.Len() > 0 {
		fmt.Fprintf(&b, " with premise {%d triples}", q.Premise.Len())
	}
	if len(q.Constraints) > 0 {
		vars := make([]string, 0, len(q.Constraints))
		for v := range q.Constraints {
			vars = append(vars, v.String())
		}
		sort.Strings(vars)
		fmt.Fprintf(&b, " constraints {%s}", strings.Join(vars, ", "))
	}
	return b.String()
}

// Semantics selects how single answers are combined (Section 4.1).
type Semantics int

const (
	// UnionSemantics is ans∪: the set union of the single answers; blank
	// nodes of the database keep their identity across single answers.
	UnionSemantics Semantics = iota
	// MergeSemantics is ans+: single answers are merged with their blank
	// nodes renamed apart.
	MergeSemantics
)

// Options configures evaluation.
type Options struct {
	// Semantics selects ans∪ (default) or ans+.
	Semantics Semantics
	// SkipNormalForm matches against cl(D+P) instead of nf(D+P). This is
	// the ablation knob: skipping the core step is cheaper but gives up
	// the invariance-under-equivalence guarantee of Theorem 4.6 (extra
	// redundant single answers can appear).
	SkipNormalForm bool
	// MaxMatchings caps the number of matchings considered (0 = all).
	MaxMatchings int
}

// Answer is the result of evaluating a query.
type Answer struct {
	// Singles is the pre-answer preans(q, D): the set of single answers
	// v(H), deduplicated as graphs.
	Singles []*graph.Graph
	// Graph is ans∪(q,D) or ans+(q,D) depending on the semantics.
	Graph *graph.Graph
	// Matchings counts the matchings of B considered (before constraint
	// filtering collapse to equal single answers). It never exceeds
	// Options.MaxMatchings when that cap is set.
	Matchings int
	// Truncated reports that the matching enumeration was cut off by
	// Options.MaxMatchings: at least one further matching existed and
	// was discarded, so the answer may be incomplete. An answer whose
	// body has exactly MaxMatchings matchings is complete and reports
	// false.
	Truncated bool
	// Semantics records how Graph was assembled.
	Semantics Semantics
}

// Evaluate computes the answer of q over the database d (Definition 4.3).
// The matching universe is nf(D + P), per Note 4.4, where + is merge.
func Evaluate(q *Query, d *graph.Graph, opts Options) (*Answer, error) {
	return EvaluateCtx(context.Background(), q, d, opts)
}

// EvaluateCtx is Evaluate under a context: the closure saturation, the
// normal-form retraction searches, and the body-matching backtracking
// loop all poll ctx and abort with its error when it is cancelled or its
// deadline passes.
//
// Evaluation never mutates the dictionaries of d or of the premise: the
// merged universe, its saturation (skolem constants, RDFS vocabulary),
// renamed premise blanks and everything evaluateIndexed interns all
// land in scratch overlays (dict.Scratch) that die with the answer.
func EvaluateCtx(ctx context.Context, q *Query, d *graph.Graph, opts Options) (*Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	data := d.WithDict(d.Dict().Scratch())
	if q.Premise != nil && q.Premise.Len() > 0 {
		// The merge renames colliding premise blanks; routing the premise
		// through its own overlay keeps those renames (and nothing else)
		// out of the caller-owned premise dictionary too.
		p := q.Premise.WithDict(q.Premise.Dict().Scratch())
		data = graph.Merge(data, p)
	}
	data, err := Prepare(ctx, data, opts.SkipNormalForm)
	if err != nil {
		return nil, err
	}
	return evaluateAgainst(ctx, q, data, opts)
}

// Prepare computes the matching universe for premise-free queries over
// d: cl(D) when skipNormalForm is set, nf(D) otherwise. Callers
// evaluating many queries against an unchanging database compute this
// once and pass it to EvaluatePreparedCtx.
func Prepare(ctx context.Context, d *graph.Graph, skipNormalForm bool) (*graph.Graph, error) {
	if skipNormalForm {
		return closure.ClCtx(ctx, d)
	}
	return core.NormalFormCtx(ctx, d)
}

// PrepareWorkers is Prepare; the worker count is ignored.
//
// Deprecated: use Prepare. Closure saturation has a single engine.
func PrepareWorkers(ctx context.Context, d *graph.Graph, skipNormalForm bool, _ int) (*graph.Graph, error) {
	return Prepare(ctx, d, skipNormalForm)
}

// EvaluatePreparedCtx evaluates a premise-free query against a data
// graph already normalized by Prepare, skipping the per-call closure
// and core computation. The premise of q, if any, is ignored — callers
// are responsible for routing premised queries through EvaluateCtx.
func EvaluatePreparedCtx(ctx context.Context, q *Query, prepared *graph.Graph, opts Options) (*Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// A dead context must fail even when the prepared graph came
		// from a cache and the match would be trivial.
		return nil, err
	}
	return evaluateAgainst(ctx, q, prepared, opts)
}

// EvaluatePreparedIndexCtx is EvaluatePreparedCtx against a reusable
// match.Index over the prepared graph, so callers (semweb.DB) can cache
// the matcher's view alongside the prepared normal form. It never
// interns into the prepared graph's dictionary: every term evaluation
// mints (pattern terms, variables, Skolem blanks) lives in a scratch
// overlay owned by the returned Answer, so concurrent evaluations over
// one cached index are safe and the shared dictionary stays fixed.
func EvaluatePreparedIndexCtx(ctx context.Context, q *Query, ix *match.Index, opts Options) (*Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// A dead context must fail even when the prepared graph came
		// from a cache and the match would be trivial.
		return nil, err
	}
	return evaluateIndexed(ctx, q, ix, opts)
}

// evaluateAgainst runs the matching and answer assembly against an
// already-normalized data graph.
func evaluateAgainst(ctx context.Context, q *Query, data *graph.Graph, opts Options) (*Answer, error) {
	return evaluateIndexed(ctx, q, match.NewIndex(data), opts)
}

// evaluateIndexed runs the dictionary-encoded matching loop (see
// streamIndexed, which it shares with the streaming API): the body is
// solved over ID range scans, and each matching instantiates the head by
// ID substitution — single answers share one dictionary with the data,
// so deduplication and answer assembly compare integers. Strings appear
// only in the Skolem signature (head blanks, a term-identity function by
// Proposition 4.5) and in the final deterministic ordering.
//
// Everything evaluation interns — body pattern terms, variables,
// constraint IDs, the per-matching Skolem blanks — lands in a scratch
// overlay (dict.Scratch) over the data dictionary, created here and
// owned by the returned Answer. The data dictionary itself is never
// mutated, so a long-lived database can serve any number of
// (blank-headed, constrained, premised) queries without growing its
// dictionary or its snapshots.
func evaluateIndexed(ctx context.Context, q *Query, ix *match.Index, opts Options) (*Answer, error) {
	d := ix.Dict().Scratch()
	ans := &Answer{Semantics: opts.Semantics}
	st, err := streamIndexed(ctx, q, ix, opts, d, func(single *graph.Graph, _ match.Binding, _ int) bool {
		ans.Singles = append(ans.Singles, single)
		return true
	})
	if err != nil {
		return nil, err
	}
	ans.Matchings = st.Matchings
	ans.Truncated = st.Truncated

	// Deterministic order for reproducible merges: sort by the canonical
	// serialization, computed once per single answer.
	type keyed struct {
		g *graph.Graph
		k string
	}
	ordered := make([]keyed, len(ans.Singles))
	for i, s := range ans.Singles {
		ordered[i] = keyed{g: s, k: s.String()}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].k < ordered[j].k })
	for i, s := range ordered {
		ans.Singles[i] = s.g
	}

	switch opts.Semantics {
	case MergeSemantics:
		ans.Graph = graph.NewWithDict(d)
		for i, s := range ans.Singles {
			ans.Graph.AddAll(graph.RenameBlanksApart(s, fmt.Sprintf("!m%d", i)))
		}
	default:
		ans.Graph = graph.NewWithDict(d)
		for _, s := range ans.Singles {
			ans.Graph.AddAll(s)
		}
	}
	return ans, nil
}

// headInstantiator computes single answers v(H) on interned IDs: head
// variables are replaced by their bindings and each head blank N by the
// Skolem value f_N(v(X1), …, v(Xk)) over the body variables (Section
// 4.1). The head template is encoded once per evaluation, into the
// evaluation's scratch dictionary — head pattern terms, variables and
// the Skolem blanks minted per matching all stay out of the shared
// data dictionary.
type headInstantiator struct {
	d          *dict.Dict // the evaluation's scratch overlay
	head       []dict.Triple3
	bodyVars   []term.Term
	bodyVarIDs []dict.ID
	headBlanks []term.Term
	blankIDs   []dict.ID
	scratch    []dict.Triple3 // per-matching instantiation buffer
}

func newHeadInstantiator(q *Query, d *dict.Dict) *headInstantiator {
	h := &headInstantiator{
		d:          d,
		bodyVars:   varsIn(q.Body),
		headBlanks: q.headBlanks(),
	}
	h.head = make([]dict.Triple3, len(q.Head))
	for i, t := range q.Head {
		h.head[i] = dict.Triple3{d.Intern(t.S), d.Intern(t.P), d.Intern(t.O)}
	}
	h.bodyVarIDs = make([]dict.ID, len(h.bodyVars))
	for i, v := range h.bodyVars {
		h.bodyVarIDs[i] = d.Intern(v)
	}
	h.blankIDs = make([]dict.ID, len(h.headBlanks))
	for i, n := range h.headBlanks {
		h.blankIDs[i] = d.Intern(n)
	}
	return h
}

// instantiate computes the encoded triples of v(H) for one matching,
// into a scratch buffer valid until the next call. The returned key is a
// cheap content fingerprint (sorted encoded triples) used for single-
// answer deduplication; ok is false when v(H) is not a well-formed RDF
// graph.
func (h *headInstantiator) instantiate(b match.Binding) ([]dict.Triple3, string, bool) {
	var skolem map[dict.ID]dict.ID
	if len(h.blankIDs) > 0 {
		var sig strings.Builder
		for _, vid := range h.bodyVarIDs {
			sig.WriteString(h.d.TermOf(b[vid]).String())
			sig.WriteByte('|')
		}
		skolem = make(map[dict.ID]dict.ID, len(h.blankIDs))
		for i, nid := range h.blankIDs {
			skolem[nid] = h.d.Intern(skolemBlank(h.headBlanks[i], sig.String()))
		}
	}
	sub := func(id dict.ID) dict.ID {
		switch h.d.KindOf(id) {
		case term.KindVar:
			return b[id]
		case term.KindBlank:
			if s, ok := skolem[id]; ok {
				return s
			}
			return id
		default:
			return id
		}
	}
	if cap(h.scratch) < len(h.head) {
		h.scratch = make([]dict.Triple3, len(h.head))
	}
	encs := h.scratch[:0]
	for _, t := range h.head {
		enc := dict.Triple3{sub(t[0]), sub(t[1]), sub(t[2])}
		if !graph.WellFormedID(h.d, enc) {
			return nil, "", false
		}
		encs = append(encs, enc)
	}
	// Insertion sort: heads are tiny and sort.Slice costs reflection.
	for i := 1; i < len(encs); i++ {
		for j := i; j > 0 && encs[j].Less(encs[j-1]); j-- {
			encs[j], encs[j-1] = encs[j-1], encs[j]
		}
	}
	// Compact duplicates: v(H) is a set, and two head patterns can
	// instantiate to the same triple; the dedup key must fingerprint
	// the set, not the multiset.
	if len(encs) > 1 {
		w := 1
		for i := 1; i < len(encs); i++ {
			if encs[i] != encs[w-1] {
				encs[w] = encs[i]
				w++
			}
		}
		encs = encs[:w]
	}
	var key strings.Builder
	key.Grow(12 * len(encs))
	for _, enc := range encs {
		for _, id := range enc {
			key.WriteByte(byte(id))
			key.WriteByte(byte(id >> 8))
			key.WriteByte(byte(id >> 16))
			key.WriteByte(byte(id >> 24))
		}
	}
	return encs, key.String(), true
}

// skolemBlank is the deterministic Skolem function f_N: the same blank
// and the same argument tuple always yield the same fresh blank node, as
// required by Proposition 4.5 ("the same Skolem function is used when
// querying any database").
func skolemBlank(n term.Term, signature string) term.Term {
	h := fnv.New64a()
	h.Write([]byte(n.Value))
	h.Write([]byte{0})
	h.Write([]byte(signature))
	return term.NewBlank(fmt.Sprintf("sk_%s_%016x", n.Value, h.Sum64()))
}

// IsLeanAnswer reports whether the assembled answer graph is lean. Under
// union semantics this is the coNP-complete check of Theorem 6.2; under
// merge semantics the polynomial single-map procedure of Theorem 6.3 is
// used.
func IsLeanAnswer(a *Answer) bool {
	if a.Semantics == MergeSemantics {
		return mergeAnswerLean(a)
	}
	return core.IsLean(a.Graph)
}

// mergeAnswerLean implements Theorem 6.3: under merge semantics single
// answers share no blanks, so every self-map of the answer is a union of
// single maps, and the answer is non-lean iff some single answer Gj has a
// non-ground triple t and a map Gj → A∖{t}. This runs in time polynomial
// in the number of single answers for a fixed query.
func mergeAnswerLean(a *Answer) bool {
	// Recreate the renamed singles as they appear inside a.Graph.
	renamed := make([]*graph.Graph, len(a.Singles))
	for i, s := range a.Singles {
		renamed[i] = graph.RenameBlanksApart(s, fmt.Sprintf("!m%d", i))
	}
	finder := newFinderCache(a.Graph)
	for _, gj := range renamed {
		for _, t := range gj.NonGroundTriples() {
			if finder.mapsIntoWithout(gj, t) {
				return false
			}
		}
	}
	return true
}

// finderCache performs repeated map searches into A∖{t} without
// rebuilding the full index each time (the target differs by one triple).
type finderCache struct {
	a *graph.Graph
}

func newFinderCache(a *graph.Graph) *finderCache { return &finderCache{a: a} }

func (f *finderCache) mapsIntoWithout(src *graph.Graph, t graph.Triple) bool {
	target := f.a.Without(t)
	blanks := func(x term.Term) bool { return x.IsBlank() }
	found := false
	match.Solve(src.Triples(), target, match.Options{IsUnknown: blanks}, func(match.Binding) bool {
		found = true
		return false
	})
	return found
}

// EliminateRedundancy returns an equivalent lean version of the answer
// graph (its core). Per Theorem 6.2 this is inherently expensive in the
// worst case under union semantics.
func EliminateRedundancy(a *Answer) *graph.Graph {
	c, _ := core.Core(a.Graph)
	return c
}
