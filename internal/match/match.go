// Package match implements the backtracking pattern-matching engine shared
// by homomorphism (map) search, query evaluation and containment testing.
//
// A problem instance is a set of triple patterns — triples in which some
// positions hold "unknowns" — and a data graph. A solution is a binding of
// every unknown to a term of the data graph such that every instantiated
// pattern is a triple of the data graph. This is exactly:
//
//   - map search μ : G' → G when the unknowns are the blank nodes of G'
//     (Section 2.4 of the paper: entailment characterization), and
//   - matching v(B) ⊆ nf(D) when the unknowns are the query variables of a
//     tableau body B (Definition 4.3).
//
// The engine is dictionary-encoded end-to-end: patterns are interned into
// the data graph's dictionary once at setup, bindings map term IDs to term
// IDs, and candidate generation is a binary-search range scan over the
// graph's sorted SPO/POS/OSP permutations — the inner search loop never
// touches a string. The engine picks the next pattern by estimated
// selectivity (most-constrained-first) using exact range-scan counts;
// ablation A3 in DESIGN.md measures the effect of that heuristic.
package match

import (
	"context"
	"sort"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/term"
)

// Binding assigns data-graph term IDs to unknown term IDs. Resolve IDs
// back to terms through the dictionary of the data graph (Index.Dict).
type Binding map[dict.ID]dict.ID

// Clone returns an independent copy of the binding.
func (b Binding) Clone() Binding {
	out := make(Binding, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// Terms decodes the binding to a term-level substitution through d.
func (b Binding) Terms(d *dict.Dict) map[term.Term]term.Term {
	out := make(map[term.Term]term.Term, len(b))
	for k, v := range b {
		out[d.TermOf(k)] = d.TermOf(v)
	}
	return out
}

// Options configures a Solve call.
type Options struct {
	// IsUnknown tells which pattern terms are unknowns to be bound. The
	// default treats query variables as unknowns; homomorphism search
	// passes a predicate that also treats blank nodes as unknowns. It is
	// evaluated once per distinct pattern term at setup, never in the
	// search loop.
	IsUnknown func(term.Term) bool

	// Injective requires pairwise-distinct values for distinct unknowns
	// (used for isomorphism search).
	Injective bool

	// Admissible, when non-nil, filters candidate values per unknown
	// (e.g. "must not be a blank node" for constrained query variables,
	// or "must be a blank node" for isomorphism search). It receives
	// dictionary IDs; resolve them through Index.Dict if needed.
	Admissible func(unknown, value dict.ID) bool

	// NoReorder disables the most-constrained-first heuristic and
	// processes patterns in the order given (ablation A3).
	NoReorder bool

	// MaxSteps bounds the number of search steps (candidate extensions
	// attempted). Zero means unlimited. When the budget is exhausted,
	// Solve returns complete = false. Patterns without an unknown take
	// no step: each is one membership check, made before the search.
	MaxSteps int

	// Ctx, when non-nil, is polled periodically inside the search loop.
	// When it is cancelled the search aborts with complete = false and
	// Solver.Err reports the cause, making long homomorphism searches
	// interruptible.
	Ctx context.Context

	// Dict, when non-nil, is the dictionary patterns are interned
	// through instead of the index graph's own. It must resolve the
	// data graph's IDs identically — a scratch overlay of the data
	// dictionary (dict.Scratch) is the intended value — so callers can
	// run searches whose pattern terms (query variables, ground terms
	// absent from the data) never grow the shared data dictionary.
	Dict *dict.Dict
}

func defaultIsUnknown(t term.Term) bool { return t.IsVar() }

// IndexMode selects the index configuration (ablation A1).
type IndexMode int

const (
	// FullIndexes scans the permutation whose prefix covers all bound
	// positions (SPO/POS/OSP range scans).
	FullIndexes IndexMode = iota
	// PredicateOnly narrows only by the predicate position (a common
	// "thin RDF library" design); subject/object filtering backtracks.
	PredicateOnly
	// ScanOnly performs full scans for every pattern (baseline).
	ScanOnly
)

// Index is the matcher's view of a data graph. The heavy lookup
// structures — the sorted ID permutations — live on the graph itself and
// are built lazily and cached there, so constructing an Index is cheap
// and repeated Solve calls share the same scans. A view made by Hiding
// shares its parent's graph and permutations and leaves out the triples
// of a set of hidden nodes.
type Index struct {
	g      *graph.Graph
	mode   IndexMode
	hidden map[dict.ID]bool // nodes whose triples the view leaves out; nil hides none
}

// NewIndex builds a full-index view over g.
func NewIndex(g *graph.Graph) *Index { return NewIndexMode(g, FullIndexes) }

// NewIndexMode builds a view over g with the given configuration.
func NewIndexMode(g *graph.Graph, mode IndexMode) *Index {
	return &Index{g: g, mode: mode}
}

// Hiding returns a view of ix's graph without the triples whose subject
// or object is in hidden. It copies nothing: the view reads hidden on
// every scan, so members the caller adds later are hidden from then on.
// Matching against it is exact for every pattern; only the counts that
// order a search (Solver) stay upper bounds.
func (ix *Index) Hiding(hidden map[dict.ID]bool) *Index {
	return &Index{g: ix.g, mode: ix.mode, hidden: hidden}
}

// Graph returns the indexed data graph. On a Hiding view that is the
// parent's whole graph, hidden triples included.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// ExtendedByIDs returns an Index over ix's graph extended by the given
// (well-formed, encoded) triples, preserving the index mode. The
// underlying graph is not mutated and its built permutations are
// extended by merging the sorted delta run, not re-sorted (see
// graph.Graph.ExtendedByIDs) — the index-layer step of incremental
// closure maintenance.
func (ix *Index) ExtendedByIDs(added []dict.Triple3) *Index {
	return &Index{g: ix.g.ExtendedByIDs(added), mode: ix.mode}
}

// Dict returns the dictionary bindings resolve through.
func (ix *Index) Dict() *dict.Dict { return ix.g.Dict() }

// hides reports whether the view leaves t out.
func (ix *Index) hides(t dict.Triple3) bool { return ix.hidden[t[0]] || ix.hidden[t[2]] }

// Clone copies the view's triples into an independent graph on the
// dictionary d, which must resolve the graph's IDs identically (a
// scratch overlay of Dict(), say).
func (ix *Index) Clone(d *dict.Dict) *graph.Graph {
	c := ix.g.WithDict(d).Clone()
	if len(ix.hidden) > 0 {
		ix.g.EachID(func(t dict.Triple3) bool {
			if ix.hides(t) {
				c.RemoveID(t)
			}
			return true
		})
	}
	return c
}

// scanKey narrows a pattern key according to the index mode: modes that
// ignore a position turn it into a wildcard (the search loop re-checks
// every position during unification, so over-approximation is sound).
func (ix *Index) scanKey(key dict.Triple3) dict.Triple3 {
	switch ix.mode {
	case ScanOnly:
		return dict.Triple3{}
	case PredicateOnly:
		return dict.Triple3{dict.Wildcard, key[1], dict.Wildcard}
	default:
		return key
	}
}

// candidates streams the view's triples compatible with the pattern key
// under the index mode.
func (ix *Index) candidates(key dict.Triple3, fn func(dict.Triple3) bool) {
	k := ix.scanKey(key)
	if ix.hidden == nil {
		ix.g.MatchID(k[0], k[1], k[2], fn)
		return
	}
	ix.g.MatchID(k[0], k[1], k[2], func(t dict.Triple3) bool { return ix.hides(t) || fn(t) })
}

// count bounds the number of candidate triples for the pattern key from
// above: hidden triples are counted.
func (ix *Index) count(key dict.Triple3) int {
	k := ix.scanKey(key)
	return ix.g.CountID(k[0], k[1], k[2])
}

// Solver runs pattern matching against a fixed Index. One solver serves
// any number of sequential Solve calls, reusing its buffers.
type Solver struct {
	ix    *Index
	opts  Options
	steps int

	poll int             // iteration counter for context polling
	done <-chan struct{} // cached opts.Ctx.Done()
	err  error           // context error observed during the search

	unknown map[dict.ID]bool // pattern terms that are unknowns (per Solve)
	used    map[dict.ID]int  // value -> refcount, for Injective
	open    []dict.Triple3   // the patterns left to search (per Solve)
	b       Binding          // the binding under construction (per Solve)
}

// ctxPollMask controls how often the context is polled: every
// (ctxPollMask+1)-th candidate extension. Polling a channel is cheap but
// not free, so the hot loop only looks at it periodically.
const ctxPollMask = 0xff

// NewSolver creates a solver over the given index with the given options.
func NewSolver(ix *Index, opts Options) *Solver {
	if opts.IsUnknown == nil {
		opts.IsUnknown = defaultIsUnknown
	}
	s := &Solver{ix: ix, opts: opts}
	if opts.Ctx != nil {
		s.done = opts.Ctx.Done()
	}
	if opts.Injective {
		s.used = make(map[dict.ID]int)
	}
	return s
}

// Err returns the context error that aborted the last Solve call, or nil
// if the search was not cancelled.
func (s *Solver) Err() error { return s.err }

// interrupted polls the context (on the first candidate and every
// ctxPollMask+1 calls thereafter, so even tiny searches observe a
// cancelled context) and records its error when cancelled.
func (s *Solver) interrupted() bool {
	if s.done == nil {
		return false
	}
	poll := s.poll&ctxPollMask == 0
	s.poll++
	if !poll {
		return false
	}
	select {
	case <-s.done:
		s.err = s.opts.Ctx.Err()
		return true
	default:
		return false
	}
}

// encode interns the patterns into the solver's dictionary (Options.Dict
// if set, otherwise the data dictionary) and returns them with the set
// of pattern IDs that are unknowns. Ground pattern terms absent from the
// data receive fresh IDs that match no triple, which is the correct
// failure. Terms new to the dictionary are interned in one batch first,
// so the per-position interning below only looks IDs up.
func (s *Solver) encode(patterns []graph.Triple) ([]dict.Triple3, map[dict.ID]bool) {
	d := s.opts.Dict
	if d == nil {
		d = s.ix.Dict()
	}
	var fresh []term.Term
	for _, p := range patterns {
		for _, x := range p.Terms() {
			if _, ok := d.Lookup(x); !ok {
				if fresh == nil {
					fresh = make([]term.Term, 0, 3*len(patterns))
				}
				fresh = append(fresh, x)
			}
		}
	}
	d.InternAll(fresh)
	unknown := make(map[dict.ID]bool)
	out := make([]dict.Triple3, len(patterns))
	for i, p := range patterns {
		for j, x := range p.Terms() {
			id := d.Intern(x)
			out[i][j] = id
			if _, seen := unknown[id]; !seen {
				unknown[id] = s.opts.IsUnknown(x)
			}
		}
	}
	return out, unknown
}

// resolveKey substitutes bound unknowns into the pattern, leaving
// Wildcard at unbound positions.
func (s *Solver) resolveKey(p dict.Triple3, b Binding) dict.Triple3 {
	var key dict.Triple3
	for i, id := range p {
		if !s.unknown[id] {
			key[i] = id
		} else if v, ok := b[id]; ok {
			key[i] = v
		} else {
			key[i] = dict.Wildcard
		}
	}
	return key
}

// Solve enumerates bindings that satisfy all patterns, invoking yield for
// each. If yield returns false the search stops (reported as complete).
// The returned flag is false only if the MaxSteps budget was exhausted
// before the search space was covered. The binding handed to yield is
// the solver's own and changes after yield returns: Clone it to keep it.
func (s *Solver) Solve(patterns []graph.Triple, yield func(Binding) bool) (complete bool) {
	open, unknown := s.encode(patterns)
	s.open = open[:0] // the encoded patterns are the solver's own: filter them in place
	return s.SolveIDs(open, unknown, yield)
}

// SolveIDs is Solve over patterns already encoded against the index's
// dictionary (or Options.Dict), with unknown holding the pattern IDs to
// bind. It modifies neither argument, so a caller can keep both, and the
// solver, across searches.
func (s *Solver) SolveIDs(patterns []dict.Triple3, unknown map[dict.ID]bool, yield func(Binding) bool) (complete bool) {
	s.steps, s.err, s.unknown = 0, nil, unknown
	// A pattern without an unknown binds nothing: check it once by
	// membership, and search only the rest. Left in the search, every
	// level would recount it, which is quadratic when most of the
	// patterns are ground (a graph mapped into itself minus one triple).
	s.open = s.open[:0]
	for _, p := range patterns {
		if unknown[p[0]] || unknown[p[1]] || unknown[p[2]] {
			s.open = append(s.open, p)
			continue
		}
		if s.interrupted() {
			return false
		}
		if !s.ix.g.HasID(p) || s.ix.hides(p) {
			return true
		}
	}
	if s.b == nil {
		s.b = make(Binding) // every search path unbinds what it bound
	}
	stopped := false
	ok := s.solve(s.open, s.b, func(bind Binding) bool {
		if !yield(bind) {
			stopped = true
			return false
		}
		return true
	})
	return ok || stopped
}

// Solve is a convenience entry point building a one-shot solver.
func Solve(patterns []graph.Triple, data *graph.Graph, opts Options, yield func(Binding) bool) bool {
	return NewSolver(NewIndex(data), opts).Solve(patterns, yield)
}

// First returns the first solution found, if any. The bool result is the
// completeness flag of the underlying search: if false and no solution was
// found, the search was inconclusive (budget exhausted).
func (s *Solver) First(patterns []graph.Triple) (Binding, bool, bool) {
	var found Binding
	complete := s.Solve(patterns, func(b Binding) bool {
		found = b.Clone()
		return false
	})
	return found, found != nil, complete
}

// solve searches the patterns of remaining, which it permutes while it
// runs and restores before it returns.
func (s *Solver) solve(remaining []dict.Triple3, b Binding, yield func(Binding) bool) bool {
	if len(remaining) == 0 {
		return yield(b)
	}

	// Pick the next pattern: most-constrained-first unless disabled. The
	// selectivity estimate is an exact range-scan count (two binary
	// searches per pattern), not a materialized candidate list.
	pick := 0
	if !s.opts.NoReorder {
		best := -1
		for i, p := range remaining {
			n := s.ix.count(s.resolveKey(p, b))
			if best == -1 || n < best {
				best = n
				pick = i
				if n == 0 {
					break
				}
			}
		}
	}
	// Rotate the pick to the front: the rest keeps its order, and the
	// search below it needs no slice of its own.
	p := remaining[pick]
	copy(remaining[1:pick+1], remaining[:pick])
	remaining[0] = p
	rest := remaining[1:]

	ok := true
	s.ix.candidates(s.resolveKey(p, b), func(cand dict.Triple3) bool {
		if s.interrupted() {
			ok = false
			return false
		}
		if s.opts.MaxSteps > 0 {
			s.steps++
			if s.steps > s.opts.MaxSteps {
				ok = false
				return false
			}
		}
		newly, unified := s.unify(p, cand, b)
		if !unified {
			return true
		}
		if !s.solve(rest, b, yield) {
			s.retract(newly, b)
			ok = false
			return false
		}
		s.retract(newly, b)
		return true
	})
	copy(remaining[:pick], remaining[1:pick+1])
	remaining[pick] = p
	return ok
}

// unify extends b so that pattern p instantiates to triple cand. It
// returns the unknowns newly bound (for backtracking) and whether
// unification succeeded. All comparisons are integer ID comparisons.
func (s *Solver) unify(p, cand dict.Triple3, b Binding) ([3]dict.ID, bool) {
	var newly [3]dict.ID // 0 (Wildcard) slots are unused
	for i := 0; i < 3; i++ {
		pat, val := p[i], cand[i]
		if !s.unknown[pat] {
			if pat != val {
				s.retract(newly, b)
				return newly, false
			}
			continue
		}
		if bound, ok := b[pat]; ok {
			if bound != val {
				s.retract(newly, b)
				return newly, false
			}
			continue
		}
		if s.opts.Admissible != nil && !s.opts.Admissible(pat, val) {
			s.retract(newly, b)
			return newly, false
		}
		if s.opts.Injective && s.used[val] > 0 {
			s.retract(newly, b)
			return newly, false
		}
		b[pat] = val
		if s.opts.Injective {
			s.used[val]++
		}
		newly[i] = pat
	}
	return newly, true
}

func (s *Solver) retract(newly [3]dict.ID, b Binding) {
	for _, u := range newly {
		if u == dict.Wildcard {
			continue
		}
		if s.opts.Injective {
			v := b[u]
			s.used[v]--
			if s.used[v] == 0 {
				delete(s.used, v)
			}
		}
		delete(b, u)
	}
}

// Unknowns returns the distinct unknowns occurring in the patterns, in
// canonical order.
func Unknowns(patterns []graph.Triple, isUnknown func(term.Term) bool) []term.Term {
	if isUnknown == nil {
		isUnknown = defaultIsUnknown
	}
	set := make(map[term.Term]struct{})
	for _, p := range patterns {
		for _, x := range p.Terms() {
			if isUnknown(x) {
				set[x] = struct{}{}
			}
		}
	}
	out := make([]term.Term, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
