package semweb

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"semwebdb/internal/canon"
	"semwebdb/internal/closure"
	"semwebdb/internal/core"
	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/hom"
	"semwebdb/internal/match"
	"semwebdb/internal/obs"
	"semwebdb/internal/persist"
	"semwebdb/internal/query"
	"semwebdb/internal/term"
)

// DB is an RDF database with RDFS semantics: a graph of triples plus
// the inference, normalization and query machinery of the paper behind
// one handle.
//
// The DB owns a single term dictionary shared by every snapshot: terms
// are interned to integer IDs once, at load time, and the engine layers
// compare IDs from then on — strings reappear only when answers are
// rendered. Only mutations (Load*, Add, AddGraph) intern into that
// dictionary. Read operations run against scratch overlays
// (dict.Scratch): pattern terms, variables, Skolem blanks, premise
// merges and saturation vocabulary land in a copy-on-write layer, so
// Stats' DictTerms is unchanged by any amount of query traffic.
//
// Eval, Stream and the paper operations (Entails, Equivalent, Infers,
// Closure, NormalForm, Fingerprint) share one prepared cl(D) per
// database, kept current by delta maintenance, and its core nf(D) —
// the same state on a ground D. A premise-free read answers over the
// snapshot that is current when its universe resolves.
//
// The dictionary can still outgrow the live data: batches rejected
// part-way intern their prefix, Graph() copies share the dictionary
// and mutate it when written to, and snapshots written by earlier
// versions may carry accumulated garbage. Compact rebuilds the
// dictionary from the live triple set with a dense remapping (IDs
// change, the triple set and Fingerprint do not), and Snapshot
// triggers the same rebuild automatically when DictTerms has grown to
// a multiple of Terms. Stats reports both counts.
//
// A DB is safe for concurrent use. Mutations install a fresh snapshot
// under a write lock, while readers — queries included — operate on
// immutable snapshots, so long evaluations never block loads (or a
// compaction) and vice versa.
//
// A DB opened with OpenAt is durable: mutations are appended to a
// write-ahead log before they are published, Snapshot checkpoints the
// state into a binary snapshot file, and reopening the same directory
// recovers the exact dictionary IDs and sorted index permutations
// without re-parsing or re-sorting anything.
type DB struct {
	// commitMu serializes mutations (and checkpoints) end to end, so
	// that the WAL append — including its fsync — runs without holding
	// mu: readers never wait on a disk sync, only on the O(1) snapshot
	// publish. Lock order: commitMu before mu, always.
	commitMu sync.Mutex
	mu       sync.RWMutex
	dict     *dict.Dict      // shared across all snapshots; internally synchronized
	g        *graph.Graph    // guarded by mu; current snapshot; treated as immutable
	eng      *persist.Engine // set at open, immutable after; nil for purely in-memory databases
	ro       *persist.Stats  // set at open, immutable after; read-only open: frozen on-disk stats
	replica  *replica        // set at open, immutable after; non-nil on a read replica (FollowAt)
	closed   bool            // guarded by mu

	// cl and nf cache the premise-free matching universes cl(D) and
	// nf(D) of one snapshot. There is one prepared graph, cl(D): it
	// keeps the matcher's lookup structures alive — the sorted
	// SPO/POS/OSP permutations are built lazily on the graph itself and
	// cached there — so repeated reads neither redo the closure
	// saturation nor re-sort the scan indexes.
	//
	// cl(D) is saturated once. A mutation queues its batch in pending,
	// and the next read folds it in by semi-naive delta saturation
	// (closure.Maintainer) — blank nodes are constants to the rules
	// (Lemma 3.4) — publishing a fresh extended graph/index pair;
	// readers streaming from the old state are never disturbed. nf(D)
	// is never saturated or copied: a ground graph is its own core, so
	// on a ground state nf == cl; otherwise nf(D) is cl(D) without the
	// triples of the blanks core(cl(D)) drops (the core package lemma),
	// so the nf state is cl's index hiding that gone set, computed on
	// the first nf read and discarded when cl moves on. Compact and a
	// maintenance error drop both (counted per reason in Stats).
	//
	// Invariants (under mu): cl.base ∪ pending == g; pending, empty
	// while cl is nil, holds triples absent from cl.base in commit
	// order, pairwise distinct, encoded against dict; nf is nil, cl, or
	// a view of cl's graph hiding the blanks its core drops.
	cl, nf  *preparedState // guarded by mu (a state's maintainer by prepSlot)
	pending []dict.Triple3 // guarded by mu

	// prepSlot is a one-slot semaphore serializing matching-universe
	// computation — full prepares, delta maintenance and cores — so
	// concurrent first queries wait for one result instead of racing
	// duplicate saturations. A channel rather than a mutex so that a
	// waiter's context can end the wait. Lock order: prepSlot strictly
	// before mu.
	prepSlot chan struct{}

	prepStats prepCounters

	cfg config
}

// preparedState is one cached matching universe of the snapshot base:
// the match index whose triples are the universe and, once delta
// maintenance has run, the closure maintainer that extends it. m is
// lazily built and only touched holding prepSlot; readers use base, ix
// and the fingerprint exclusively. ground: the universe has no blank
// node, so is its own core.
type preparedState struct {
	base   *graph.Graph
	ix     *match.Index
	m      *closure.Maintainer
	ground bool

	fpOnce sync.Once
	fp     string // canonical serialization of the universe, set by fpOnce
}

// prepCounters are the monotonic prepared-cache maintenance counters
// behind Stats (atomics: they are bumped under different locks).
type prepCounters struct {
	full         atomic.Uint64
	delta        atomic.Uint64
	deltaTriples atomic.Uint64

	fbNonGroundBase  atomic.Uint64
	fbNonGroundBatch atomic.Uint64
	fbCompact        atomic.Uint64
	fbError          atomic.Uint64
	fbStale          atomic.Uint64
}

// config collects the Open options.
type config struct {
	semantics      Semantics
	skipNormalForm bool
	initial        *Graph
	walThreshold   int64
	noFsync        bool
}

// File names inside a durable database directory (see OpenAt).
const (
	// SnapshotFileName is the binary snapshot file.
	SnapshotFileName = persist.SnapshotFile
	// WALFileName is the write-ahead log file.
	WALFileName = persist.WALFile
)

// Option configures Open.
type Option func(*config)

// WithDefaultSemantics sets the answer semantics used by Eval for
// queries that do not choose one with Query.Under. The zero default is
// Union.
func WithDefaultSemantics(s Semantics) Option {
	return func(c *config) { c.semantics = s }
}

// WithoutNormalForm makes Eval match query bodies against cl(D+P)
// instead of nf(D+P). Skipping the core step is cheaper but gives up
// the invariance-under-equivalence guarantee of Theorem 4.6.
func WithoutNormalForm() Option {
	return func(c *config) { c.skipNormalForm = true }
}

// WithGraph seeds the database with the triples of g (copied; later
// mutations of g are not observed).
func WithGraph(g *Graph) Option {
	return func(c *config) { c.initial = g }
}

// WithWALThreshold sets the write-ahead-log size (in bytes) above
// which OpenAt folds the log into a fresh snapshot before returning.
// Zero keeps the default (64 MiB); a negative threshold disables
// compaction on open. It has no effect on in-memory databases.
func WithWALThreshold(bytes int64) Option {
	return func(c *config) { c.walThreshold = bytes }
}

// WithoutFsync disables fsync on WAL batches and snapshot writes.
// Mutations remain crash-atomic (torn tails are discarded on reopen)
// but may be lost on power failure; intended for bulk imports and
// benchmarks that checkpoint explicitly with Snapshot.
func WithoutFsync() Option {
	return func(c *config) { c.noFsync = true }
}

// Open creates an in-memory database. Its contents live and die with
// the process; use OpenAt for a durable one.
func Open(opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	d := dict.New()
	g := graph.NewWithDict(d)
	if cfg.initial != nil {
		g.AddAll(cfg.initial)
	}
	return newDB(d, g, nil, cfg), nil
}

// newDB returns a database serving g, encoded against d, logging to
// eng when it is non-nil.
func newDB(d *dict.Dict, g *graph.Graph, eng *persist.Engine, cfg config) *DB {
	return &DB{dict: d, g: g, eng: eng, cfg: cfg, prepSlot: make(chan struct{}, 1)}
}

// OpenAt opens a durable database rooted at the directory dir,
// creating it if needed. The directory holds a binary snapshot
// (dictionary + triples + the three sorted index permutations, see
// DESIGN.md for the wire format) and a sidecar write-ahead log; OpenAt
// decodes the snapshot, replays the log's valid prefix on top —
// discarding a torn final record, as a crashed writer leaves one —
// and, when the surviving log exceeds the WAL threshold, compacts it
// into a fresh snapshot. The recovered database has the same dense
// dictionary IDs and ready-sorted permutations it was closed with, so
// opening is a read, not a re-parse/re-intern/re-sort.
//
// Every later mutation is appended to the log before its snapshot is
// published. Recovery keeps the longest prefix of intact log records:
// after a crash that is everything up to the batches an fsync has not
// covered (none, unless WithoutFsync is set); if later record bytes
// are ever damaged in place, the records beyond them are dropped from
// the replay too, and every discarded byte is preserved beside the log
// in a ".torn" file rather than silently destroyed.
//
// The write-ahead log is flock-protected (on unix): a second writer
// opening the same directory fails rather than corrupting it. Use
// OpenAtReadOnly to inspect a directory another process is writing.
func OpenAt(dir string, opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	eng, d, g, err := persist.Open(dir, persist.Options{
		CompactThreshold: cfg.walThreshold,
		NoSync:           cfg.noFsync,
	})
	if err != nil {
		return nil, err
	}
	db := newDB(d, g, eng, cfg)
	if cfg.initial != nil {
		if err := db.AddGraph(cfg.initial); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return db, nil
}

// OpenAtReadOnly recovers a database directory for inspection without
// touching it: no file is created, locked, truncated or compacted, so
// it is safe against a directory another process is actively writing
// and works on read-only media. The returned database is closed for
// mutation (Add and friends fail with ErrClosed; Snapshot with
// ErrNotPersistent) but serves reads and queries, and Stats reports
// the on-disk footprint as recovered. It fails if the directory does
// not exist or holds no database.
func OpenAtReadOnly(dir string, opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	d, g, st, err := persist.OpenReadOnly(dir)
	if err != nil {
		return nil, err
	}
	db := newDB(d, g, nil, cfg)
	db.ro, db.closed = &st, true
	return db, nil
}

// addGraphs unions batches of new triples into the database as one
// commit: every batch is validated and encoded into the shared
// dictionary, and the encoded union takes one clone, one publish and
// (when durable) one fsynced WAL append — not an O(|D|) copy per
// batch. commitMu is held from encoding to publish, so a concurrent
// Compact cannot swap the dictionary the batch was encoded against.
func (db *DB) addGraphs(adds []*graph.Graph) error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if db.replica != nil {
		return ErrReplica
	}
	var batch []dict.Triple3
	var illFormed *Triple
	for _, add := range adds {
		if add == nil {
			continue
		}
		// The database stores well-formed RDF only — the durable codecs
		// enforce the positional restrictions on every decode, so an
		// ill-formed triple admitted here (possible in a raw Graph via
		// Map.Apply, which preserves instances exactly) would poison
		// every future reopen. Reject the batch instead, matching Add.
		if add.Dict() == db.dict {
			add.EachID(func(enc dict.Triple3) bool {
				if !graph.WellFormedID(db.dict, enc) {
					t := decodeTriple(db.dict, enc)
					illFormed = &t
					return false
				}
				batch = append(batch, enc)
				return true
			})
		} else {
			add.Each(func(t Triple) bool {
				if !t.WellFormed() {
					// Copy before taking the address: &t would make the
					// parameter escape and cost one heap Triple per
					// iteration on the hot path, not just here.
					bad := t
					illFormed = &bad
					return false
				}
				batch = append(batch, dict.Triple3{db.dict.Intern(t.S), db.dict.Intern(t.P), db.dict.Intern(t.O)})
				return true
			})
		}
		if illFormed != nil {
			return fmt.Errorf("%w: %s", ErrIllFormedTriple, *illFormed)
		}
	}
	return db.commit(batch)
}

// commit is the one way a batch becomes the current snapshot, on a
// leader and a replica alike (caller holds commitMu, so the snapshot
// cloned is still current at publish). The batch, encoded against
// db.dict, is added to a clone of the snapshot and filtered in place
// down to the triples that were new; a batch that adds nothing
// publishes nothing. A durable leader then logs the fresh triples —
// outside mu, so the fsync stalls no reader; a replica's batch is in
// its mirror already — and only then is the clone published and the
// fresh triples noted against the prepared cache. If logging fails,
// the database is unchanged.
func (db *DB) commit(batch []dict.Triple3) error {
	next := db.snapshot().Clone()
	fresh := batch[:0]
	for _, t := range batch {
		if next.AddID(t) {
			fresh = append(fresh, t)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	if db.eng != nil {
		if err := db.eng.Append(db.dict, fresh); err != nil {
			return fmt.Errorf("semweb: logging mutation: %w", err)
		}
	}
	db.mu.Lock()
	db.g = next
	db.noteInsertLocked(fresh)
	db.mu.Unlock()
	return nil
}

// noteInsertLocked queues freshly inserted triples for semi-naive
// delta application on the next read while cl(D) is cached (caller
// holds mu).
func (db *DB) noteInsertLocked(fresh []dict.Triple3) {
	if db.cl != nil {
		db.pending = append(db.pending, fresh...)
	}
}

// publishLocked caches st as cl(D) — and as nf(D) when st is ground —
// of the current snapshot (caller holds mu). The core step is not
// incremental (an inserted triple can make previously-core blanks
// mappable), so a cached nf(D) that st does not replace is discarded,
// and the matching fallback counter bumped.
func (db *DB) publishLocked(st *preparedState) {
	switch {
	case db.nf == nil:
	case db.nf != db.cl:
		db.prepStats.fbNonGroundBase.Add(1)
	case !st.ground:
		db.prepStats.fbNonGroundBatch.Add(1)
	}
	db.cl, db.nf = st, nil
	if st.ground {
		db.nf = st
	}
}

// universe returns the prepared state whose triple set is nf(D) (nf
// true) or cl(D) of the current snapshot D: the universe every
// premise-free Eval and Stream matches against, and the only source of
// cl(D)/nf(D) for the paper operations. The state's base is the
// snapshot it covers — the one current when the call resolved it. A
// dead ctx fails even on a hit.
//
// The universe is prepared over a scratch overlay of the shared
// dictionary: the skolem constants and vocabulary the saturation
// interns live in the overlay, which the cached prepared graph keeps
// alive until the cache is replaced — so even the first query after a
// load leaves DictTerms untouched. Per-query interning then goes into
// a second, evaluation-owned overlay layered on this one (see
// query.EvaluatePreparedIndexCtx and query.StreamPreparedIndexCtx).
//
// Resolution order: a cache hit is lock-cheap; otherwise, holding
// prepSlot, the pending insert queue is folded into cl(D) by delta
// saturation, or the current snapshot is saturated from scratch; an nf
// read of a non-ground cl(D) then takes its core. prepSlot serializes
// all of this, so concurrent first reads after a mutation wait for one
// maintenance pass instead of racing duplicate saturations; a reader
// whose ctx ends while it waits gives up with ErrCancelled.
//
// The returned histogram is the semweb_query_seconds child labelled
// with the branch that resolved the request: a core counts as full.
func (db *DB) universe(ctx context.Context, nf bool) (*preparedState, *obs.Histogram, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, wrapEngineError(err)
	}
	if st := db.cached(nf); st != nil {
		return st, querySecondsCached, nil
	}
	select {
	case db.prepSlot <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, wrapEngineError(ctx.Err())
	}
	defer func() { <-db.prepSlot }()
	if st := db.cached(nf); st != nil {
		return st, querySecondsCached, nil // filled while waiting for prepSlot
	}
	st, err := db.deltaPrepare(ctx)
	seconds := querySecondsDelta
	if st == nil && err == nil {
		seconds = querySecondsFull
		st, err = db.fullPrepare(ctx)
	}
	if err == nil && nf && !st.ground {
		seconds = querySecondsFull
		st, err = db.normalize(ctx, st)
	}
	return st, seconds, wrapEngineError(err)
}

// cached returns the cached nf (or cl) state when it covers the
// current snapshot, else nil.
func (db *DB) cached(nf bool) *preparedState {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := db.cl
	if nf {
		st = db.nf
	}
	if st == nil || st.base != db.g {
		return nil
	}
	return st
}

// deltaPrepare folds the pending insert queue into cl(D) by semi-naive
// delta saturation and publishes the extension, which then covers the
// snapshot current when the queue was read. With nothing pending it
// returns the cached cl(D) as is, and (nil, nil) when none is cached;
// the caller then prepares from scratch. Caller holds prepSlot.
func (db *DB) deltaPrepare(ctx context.Context) (*preparedState, error) {
	db.mu.RLock()
	st, g := db.cl, db.g
	// Snapshot the queue and the dictionary it was encoded against
	// together: a Compact would replace both, and it also drops the
	// cache, which the publish step below re-checks.
	batch, from := append([]dict.Triple3(nil), db.pending...), db.dict
	db.mu.RUnlock()
	if st == nil || len(batch) == 0 {
		return st, nil
	}
	nst, err := extendPrepared(ctx, st, g, from, batch)
	db.mu.Lock()
	defer db.mu.Unlock()
	// A concurrent Compact may have dropped the cache meanwhile; the
	// extension then serves this caller only.
	// Mutations that merely appended more pending triples do not
	// invalidate it: it covers base ∪ batch = g exactly, and the queue
	// keeps the later entries.
	current := db.cl == st
	switch {
	case err != nil:
		// A cancelled or failed apply poisons the maintainer and leaves
		// no usable extension: drop the cache so the next read
		// re-prepares from scratch, and report the error.
		db.prepStats.fbError.Add(1)
		if current {
			db.cl, db.nf, db.pending = nil, nil, nil
		}
		return nil, err
	case current:
		db.publishLocked(nst)
		db.pending = db.pending[len(batch):]
		if len(db.pending) == 0 {
			db.pending = nil
		}
	}
	db.prepStats.delta.Add(1)
	db.prepStats.deltaTriples.Add(uint64(len(batch)))
	return nst, nil
}

// extendPrepared folds one pending batch (encoded against the shared
// base dictionary from) into cl(D) and returns the extended state,
// which covers the snapshot g. The prepared graph lives on a
// scratch overlay created at prepare time, and base-dictionary IDs
// interned after that point collide with the overlay's private range —
// so the batch cannot be replayed by ID: each triple is decoded
// through the base dictionary and re-interned through the overlay, the
// same translation evaluation applies to query pattern terms. The
// published graph and index are never mutated — the maintainer touches
// only its private engine state, and the extension is a fresh
// graph/index pair (ExtendedByIDs) — so readers streaming from the old
// state are undisturbed.
func extendPrepared(ctx context.Context, st *preparedState, g *graph.Graph, from *dict.Dict, batch []dict.Triple3) (*preparedState, error) {
	if st.m == nil {
		// First maintenance over this state: seed the maintainer from
		// the prepared cl(D), which is RDFS-closed. It rides along in
		// every extended state, so later batches skip this O(|cl|)
		// pass.
		st.m = closure.NewMaintainer(st.ix.Graph())
	}
	to, ground := st.ix.Dict(), st.ground
	ids := make([]dict.Triple3, len(batch))
	for i, t := range batch {
		for j, id := range t {
			ids[i][j] = to.Intern(from.TermOf(id))
			ground = ground && from.KindOf(id) != term.KindBlank
		}
	}
	added, err := st.m.Apply(ctx, ids)
	if err != nil {
		return nil, err
	}
	return &preparedState{base: g, ix: st.ix.ExtendedByIDs(added), m: st.m, ground: ground}, nil
}

// fullPrepare saturates the current snapshot from scratch into cl(D)
// and caches it. A commit that overtakes the saturation while it runs
// leaves the result serving its caller uncached, counted as a stale
// fallback. Caller holds prepSlot.
func (db *DB) fullPrepare(ctx context.Context) (*preparedState, error) {
	g := db.snapshot()
	ground := g.IsGround() // O(n) scan, outside the write lock
	data, err := closure.RDFSClCtx(ctx, scratchView(g))
	if err != nil {
		return nil, err
	}
	st := &preparedState{base: g, ix: match.NewIndex(data), ground: ground}
	db.prepStats.full.Add(1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.g != g {
		db.prepStats.fbStale.Add(1)
		return st, nil
	}
	db.publishLocked(st)
	return st, nil
}

// normalize derives nf(D) = core(cl(D)) (Definition 3.18) from the
// non-ground cl(D) st, cached beside st while st is cached: st's index
// hiding the blanks the core drops, with no graph or index of its own.
// Caller holds prepSlot.
func (db *DB) normalize(ctx context.Context, st *preparedState) (*preparedState, error) {
	gone, err := core.Gone(ctx, st.ix)
	if err != nil {
		return nil, err
	}
	nst := &preparedState{base: st.base, ix: st.ix.Hiding(gone)}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.cl == st {
		db.nf = nst
	}
	return nst, nil
}

// scratchView returns the given graph behind a fresh scratch-overlay
// dictionary: derivations from it (closures, normal forms, merges,
// answers) intern into the overlay, never into the graph's own
// dictionary, which is how read operations keep Stats' DictTerms fixed
// and how the package-level paper operations leave their arguments'
// dictionaries untouched. The view is read-only and cheap (no triple
// is copied).
func scratchView(g *graph.Graph) *graph.Graph {
	return g.WithDict(g.Dict().Scratch())
}

// decodeTriple resolves an encoded triple against the dictionary.
func decodeTriple(d *dict.Dict, enc dict.Triple3) Triple {
	return Triple{S: d.TermOf(enc[0]), P: d.TermOf(enc[1]), O: d.TermOf(enc[2])}
}

// snapshot returns the current immutable graph.
func (db *DB) snapshot() *graph.Graph {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.g
}

// LoadNTriples parses an N-Triples document from r and unions it into
// the database. Syntax errors are reported as *ParseError and leave the
// database unchanged.
func (db *DB) LoadNTriples(r io.Reader) error {
	g, err := ReadNTriples(r)
	if err != nil {
		return err
	}
	return db.addGraphs([]*graph.Graph{g})
}

// LoadTurtle parses a Turtle document from r and unions it into the
// database. Syntax errors are reported as *ParseError and leave the
// database unchanged.
func (db *DB) LoadTurtle(r io.Reader) error {
	g, err := ReadTurtle(r)
	if err != nil {
		return err
	}
	return db.addGraphs([]*graph.Graph{g})
}

// LoadFile reads an RDF file chosen by extension (see LoadGraph) and
// unions it into the database.
func (db *DB) LoadFile(path string) error {
	g, err := LoadGraph(path)
	if err != nil {
		return err
	}
	return db.addGraphs([]*graph.Graph{g})
}

// LoadFiles reads several RDF files and unions them into the database
// in one bulk ingest: all files are parsed up front (any error leaves
// the database unchanged), then applied through a single
// clone-union-publish — and, when durable, a single logged batch —
// instead of one per file. For K files over a database of n triples
// this is one O(n) snapshot copy rather than K of them.
func (db *DB) LoadFiles(paths ...string) error {
	gs := make([]*graph.Graph, 0, len(paths))
	for _, p := range paths {
		g, err := LoadGraph(p)
		if err != nil {
			return err
		}
		gs = append(gs, g)
	}
	return db.addGraphs(gs)
}

// Add inserts triples. It fails with an error wrapping
// ErrIllFormedTriple on the first triple violating the RDF positional
// restrictions, without inserting any of the batch.
func (db *DB) Add(ts ...Triple) error {
	for _, t := range ts {
		if !t.WellFormed() {
			return fmt.Errorf("%w: %s", ErrIllFormedTriple, t)
		}
	}
	return db.addGraphs([]*graph.Graph{graph.New(ts...)})
}

// AddGraph unions the triples of g into the database. Like Add, it
// fails with an error wrapping ErrIllFormedTriple — storing nothing —
// if g holds a triple violating the RDF positional restrictions (only
// possible in a Graph built through Map.Apply, which preserves
// instances exactly; parsers and NewGraph never produce one).
func (db *DB) AddGraph(g *Graph) error {
	return db.addGraphs([]*graph.Graph{g})
}

// AddGraphs unions the triples of several graphs into the database as
// one bulk ingest: one snapshot swap (and, when durable, one logged
// and fsynced batch) for the whole slice. This is the batched-load
// fast path; prefer it over calling AddGraph in a loop.
func (db *DB) AddGraphs(gs ...*Graph) error {
	return db.addGraphs(gs)
}

// Len returns the number of triples currently stored (|D|).
func (db *DB) Len() int { return db.snapshot().Len() }

// Graph returns the current contents as an independent graph. The
// result is a copy: mutating it does not affect the database's triple
// set. It does share the database's term dictionary (so comparisons
// between copies stay integer-valued); terms added to a copy therefore
// intern into the shared dictionary and count toward Stats' DictTerms
// until a Compact reclaims them.
func (db *DB) Graph() *Graph { return db.snapshot().Clone() }

// Snapshot checkpoints a durable database: the current state —
// dictionary, triples and the three sorted permutations — is written
// to a fresh binary snapshot file, atomically renamed into place, and
// the write-ahead log is truncated into a new generation. A crash at
// any point leaves either the old snapshot with the full log or the
// new snapshot with a log whose replay is idempotent; reopening
// recovers the checkpointed state either way.
//
// When the dictionary has grown well past the live term set (DictTerms
// at least twice Terms, with meaningful slack — see Compact for the
// sources of such growth), Snapshot compacts instead of persisting the
// bloat: the checkpoint it writes is the dense-dictionary rebuild.
//
// On an in-memory database (Open) it fails with ErrNotPersistent.
func (db *DB) Snapshot() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.replica != nil {
		return ErrReplica
	}
	if db.eng == nil {
		return ErrNotPersistent
	}
	db.mu.RLock()
	g, closed := db.g, db.closed
	db.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if shouldAutoCompact(g) {
		return db.compactLocked(g, compactionsAuto)
	}
	// The checkpoint runs without mu: the snapshot is immutable and
	// commitMu keeps concurrent mutations from appending to the log it
	// is about to truncate.
	return db.eng.Compact(g)
}

// Auto-compaction thresholds: Snapshot rebuilds the dictionary when it
// holds at least autoCompactFactor times the live term count and the
// absolute excess passes autoCompactSlack (so small databases are not
// churned over a handful of stale entries).
const (
	autoCompactFactor = 2
	autoCompactSlack  = 1024
)

func shouldAutoCompact(g *graph.Graph) bool {
	dictLen := g.Dict().Len()
	live := g.UniverseSize()
	return dictLen >= autoCompactFactor*live && dictLen-live >= autoCompactSlack
}

// Compact rebuilds the dictionary from the live triple set: terms no
// longer occurring in any stored triple are dropped and the survivors
// are renumbered densely (old order preserved), the graph's encoded
// triples and its three sorted permutations are rewritten through the
// old→new map without re-sorting, and — on a durable database — a
// fresh snapshot of the rebuilt state is written (see
// persist.Engine.Swap for the crash-safe sequence; the write-ahead log
// is checkpointed and restarted against the new dictionary). The
// triple set, and therefore Fingerprint, is unchanged; Stats reports
// DictTerms == Terms afterwards and a correspondingly smaller
// snapshot.
//
// Dead dictionary entries accumulate from batches rejected part-way
// through, from Graph() copies that interned new terms, and from
// snapshots written before scratch-overlay evaluation existed (query
// traffic itself no longer grows the dictionary). Snapshot triggers
// this rebuild automatically once DictTerms is a multiple of Terms;
// call Compact directly for deterministic control — e.g. from
// rdfcheck -op compact during maintenance windows.
//
// Readers are never blocked: evaluations in flight keep their old
// snapshot (and its dictionary) and drain naturally; only the O(1)
// publish of the rebuilt state takes the write lock. The prepared
// universe is rebuilt lazily on the next read.
func (db *DB) Compact() error {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.mu.RLock()
	g, closed := db.g, db.closed
	db.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if db.replica != nil {
		// A replica's mirror must stay a byte prefix of the leader's
		// log; the leader's own compaction reaches it as a generation
		// switch.
		return ErrReplica
	}
	return db.compactLocked(g, compactionsManual)
}

// compactLocked rebuilds and publishes the compacted state for the
// snapshot g (the current one; the caller holds commitMu, so no
// mutation can slip between reading g and publishing its rebuild).
// trigger is the semweb_db_compactions_total child to credit.
func (db *DB) compactLocked(g *graph.Graph, trigger *obs.Counter) error {
	ng, _ := graph.Compacted(g)
	if db.eng != nil {
		if err := db.eng.Swap(g, ng); err != nil {
			return fmt.Errorf("semweb: compacting: %w", err)
		}
	}
	db.resetLocked(ng.Dict(), ng)
	trigger.Inc()
	return nil
}

// resetLocked publishes g, encoded against the new dictionary d, for
// Compact and a replica's re-bootstrap (caller holds commitMu). Every
// cached ID is invalid then, so the prepared cache is dropped and
// counted as a compaction fallback.
func (db *DB) resetLocked(d *dict.Dict, g *graph.Graph) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dict = d
	db.g = g
	if db.cl != nil {
		db.prepStats.fbCompact.Add(1)
	}
	db.cl, db.nf, db.pending = nil, nil, nil
}

// Close flushes and closes the write-ahead log of a durable database
// and rejects further mutations; queries keep working against the last
// published snapshot. Closing an in-memory database only marks it
// closed. Close is idempotent.
func (db *DB) Close() error {
	db.commitMu.Lock()
	db.mu.Lock()
	wasClosed := db.closed
	db.closed = true
	db.mu.Unlock()
	db.commitMu.Unlock()
	if wasClosed {
		return nil
	}
	// On a replica the tail loop may be blocked on commitMu inside a
	// commit, so stopping it (which waits for the loop to exit) must
	// happen after commitMu is released; closed is already set, so only
	// a replicated chunk, never a caller's mutation, can slip in
	// between.
	if db.replica != nil {
		return db.replica.stop()
	}
	if db.eng == nil {
		return nil
	}
	return db.eng.Close()
}

// Stats summarizes the current contents and the dictionary-encoded
// representation behind it. It marshals to stable snake_case JSON —
// the encoding shared by semwebd's /v1/{db}/stats endpoint and
// rdfcheck -op stats -json.
type Stats struct {
	// Triples is |D|.
	Triples int `json:"triples"`
	// BlankNodes is the number of distinct blank nodes.
	BlankNodes int `json:"blank_nodes"`
	// Terms is the number of distinct terms occurring in D
	// (|universe(D)|).
	Terms int `json:"terms"`
	// DictTerms is the number of terms interned in the database's
	// shared dictionary. It is at least Terms; query evaluation never
	// changes it (evaluation interns into scratch overlays), but
	// rejected batches, written-to Graph() copies and pre-compaction
	// snapshots can leave it larger. Compact restores
	// DictTerms == Terms.
	DictTerms int `json:"dict_terms"`
	// IndexSizes are the entry counts of the three sorted index
	// permutations over the current snapshot, in the order SPO, POS,
	// OSP. Each permutation holds one entry per triple.
	IndexSizes [3]int `json:"index_sizes"`
	// Persistent reports whether the database is backed by a directory
	// (OpenAt). The remaining fields are zero when it is not.
	Persistent bool `json:"persistent"`
	// SnapshotBytes is the size of the on-disk binary snapshot file; 0
	// until the first checkpoint (Snapshot or threshold compaction).
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// WALBytes is the size of the valid write-ahead-log records not yet
	// folded into the snapshot.
	WALBytes int64 `json:"wal_bytes"`
	// WALRecords is the number of valid write-ahead-log records.
	WALRecords int `json:"wal_records"`

	// Replica reports whether the database is a read replica
	// (FollowAt). The Repl* fields below are zero when it is not; on a
	// replica, SnapshotBytes/WALBytes/WALRecords above describe the
	// local mirror (a byte prefix of the leader's log).
	Replica bool `json:"replica"`
	// ReplAppliedBytes is the replica's applied offset: the durable
	// bytes of the leader's write-ahead log mirrored and applied
	// locally (including the log file header).
	ReplAppliedBytes int64 `json:"repl_applied_bytes"`
	// ReplAppliedRecords is the number of leader log records applied.
	ReplAppliedRecords int `json:"repl_applied_records"`
	// ReplLagBytes/ReplLagRecords are the leader's durable totals
	// minus the applied totals, as of the last tail response — the
	// same quantities the semwebd_repl_lag_* gauges export.
	ReplLagBytes   int64 `json:"repl_lag_bytes"`
	ReplLagRecords int   `json:"repl_lag_records"`

	// PreparedFull counts closure saturations from scratch since the
	// database was opened, whether a query or a paper operation
	// (Entails, Infers, ...) asked first. Both universes share the one
	// cl(D): nf(D) is its core, not a second saturation.
	PreparedFull uint64 `json:"prepared_full"`
	// PreparedDelta counts incremental maintenance passes: pending
	// insert batches, blank nodes or not, folded into the cached cl(D)
	// by semi-naive delta saturation instead of a full re-preparation.
	PreparedDelta uint64 `json:"prepared_delta"`
	// PreparedDeltaTriples is the total number of inserted triples
	// those delta passes folded in.
	PreparedDeltaTriples uint64 `json:"prepared_delta_triples"`
	// The PreparedFallbackNonGround* counters tally cached nf(D) states
	// a delta fold discarded: a core of a non-ground cl(D) (Base), or a
	// ground nf(D) = cl(D) that took blank nodes (Batch). cl(D) itself
	// is kept. The next nf read re-cores the folded cl(D), which ticks
	// no counter. The other two count drops of the whole cache: a
	// Compact renumbered the dictionary, or a maintenance pass failed
	// (e.g. cancelled mid-apply).
	PreparedFallbackNonGroundBase  uint64 `json:"prepared_fallback_non_ground_base"`
	PreparedFallbackNonGroundBatch uint64 `json:"prepared_fallback_non_ground_batch"`
	PreparedFallbackCompact        uint64 `json:"prepared_fallback_compact"`
	PreparedFallbackError          uint64 `json:"prepared_fallback_error"`
	// Deprecated: always 0. Incremental maintenance can no longer be
	// disabled; the field and its JSON key stay for existing readers.
	PreparedFallbackDisabled uint64 `json:"prepared_fallback_disabled"`
	// PreparedFallbackStale counts full preparations that a commit
	// overtook while they ran: the result serves the read that asked
	// for it but is not cached (each is also counted in PreparedFull).
	PreparedFallbackStale uint64 `json:"prepared_fallback_stale"`
}

// Stats returns size statistics for the current contents. Each sorted
// permutation holds exactly one entry per triple, so IndexSizes is
// derived without forcing the snapshot's lazy index builds (queries
// run against the cached prepared graph, not the raw snapshot).
func (db *DB) Stats() Stats {
	g := db.snapshot()
	n := g.Len()
	st := Stats{
		Triples:    n,
		BlankNodes: len(g.BlankNodes()),
		Terms:      g.UniverseSize(),
		DictTerms:  g.Dict().Len(),
		IndexSizes: [3]int{n, n, n},

		PreparedFull:                   db.prepStats.full.Load(),
		PreparedDelta:                  db.prepStats.delta.Load(),
		PreparedDeltaTriples:           db.prepStats.deltaTriples.Load(),
		PreparedFallbackNonGroundBase:  db.prepStats.fbNonGroundBase.Load(),
		PreparedFallbackNonGroundBatch: db.prepStats.fbNonGroundBatch.Load(),
		PreparedFallbackCompact:        db.prepStats.fbCompact.Load(),
		PreparedFallbackError:          db.prepStats.fbError.Load(),
		PreparedFallbackStale:          db.prepStats.fbStale.Load(),
	}
	st.Persistent = db.replica != nil || db.eng != nil || db.ro != nil
	// A replica's engine is transiently nil mid-rebootstrap; the
	// footprint fields read zero then ("not servable right now").
	if eng := db.engine(); eng != nil {
		es := eng.Stats()
		st.SnapshotBytes = es.SnapshotBytes
		st.WALBytes = es.WALBytes
		st.WALRecords = es.WALRecords
	} else if db.ro != nil {
		st.SnapshotBytes = db.ro.SnapshotBytes
		st.WALBytes = db.ro.WALBytes
		st.WALRecords = db.ro.WALRecords
	}
	if db.replica != nil {
		fs := db.replica.f.Status()
		st.Replica = true
		st.ReplAppliedBytes = fs.AppliedBytes
		st.ReplAppliedRecords = fs.AppliedRecords
		st.ReplLagBytes = fs.LagBytes
		st.ReplLagRecords = fs.LagRecords
	}
	return st
}

// Has reports whether the triple is asserted (syntactic membership).
func (db *DB) Has(t Triple) bool { return db.snapshot().Has(t) }

// Infers reports whether t ∈ cl(D): a lookup of t in the prepared cl(D),
// interning nothing. Ill-formed triples and unknown terms give false.
func (db *DB) Infers(t Triple) bool {
	st, _, err := db.universe(context.TODO(), false)
	return err == nil && st.ix.Graph().Has(t)
}

// Eval evaluates q against the database (Definition 4.3): the body is
// matched against nf(D + P) — or cl(D + P) under WithoutNormalForm —
// and the single answers are assembled under the query's semantics
// (Union unless overridden by Query.Under or WithDefaultSemantics).
//
// Eval honors ctx throughout: the closure saturation, the normal-form
// retraction searches and the body-matching loop all poll ctx, so a
// cancelled context aborts promptly with an error wrapping
// ErrCancelled. Malformed queries fail with an error wrapping
// ErrMalformedQuery.
func (db *DB) Eval(ctx context.Context, q *Query) (*Answer, error) {
	p, err := db.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	endSolve := obs.TraceFrom(ctx).StartSpan("solve")
	ans, err := query.EvaluatePreparedIndexCtx(ctx, p.iq, p.ix, p.opts)
	endSolve()
	if err != nil {
		return nil, wrapEngineError(err)
	}
	p.observe(len(ans.Singles), ans.Truncated)
	return &Answer{inner: ans}, nil
}

// queryPlan is a compiled query bound to the matching universe it runs
// against: Eval collects its answer, Stream streams it.
type queryPlan struct {
	iq      *query.Query
	opts    query.Options
	ix      *match.Index
	t0      time.Time      // when the query arrived
	seconds *obs.Histogram // semweb_query_seconds child for how ix was resolved
}

// plan is the step Eval and Stream share. It compiles q, resolves its
// options against the DB defaults and gets the matching universe: the
// cached nf(D) (or cl(D)) of the current snapshot from universe for a
// premise-free query, or a per-query nf(D + P) from query.Universe for
// a premised one — a premise changes the universe, so nothing is
// cached across queries. Resolving the universe is the "prepare" span
// of the query's trace.
func (db *DB) plan(ctx context.Context, q *Query) (*queryPlan, error) {
	t0 := time.Now()
	if q == nil {
		return nil, &malformedQueryError{cause: fmt.Errorf("nil query")}
	}
	iq, err := q.compile()
	if err != nil {
		return nil, err
	}
	p := &queryPlan{iq: iq, t0: t0, seconds: querySecondsPremise, opts: query.Options{
		Semantics:      db.cfg.semantics,
		SkipNormalForm: db.cfg.skipNormalForm || q.skipNF,
		MaxMatchings:   q.maxMatchings,
	}}
	if q.semanticsSet {
		p.opts.Semantics = q.semantics
	}
	defer obs.TraceFrom(ctx).StartSpan("prepare")()
	if iq.Premise == nil || iq.Premise.Len() == 0 {
		st, seconds, err := db.universe(ctx, !p.opts.SkipNormalForm)
		if err != nil {
			return nil, err
		}
		p.ix, p.seconds = st.ix, seconds
		return p, nil
	}
	if p.ix, err = query.Universe(ctx, iq, db.snapshot(), p.opts.SkipNormalForm); err != nil {
		return nil, wrapEngineError(err)
	}
	return p, nil
}

// observe records the finished query: its latency under the path that
// resolved its universe, its rows, and whether a LimitMatchings cap cut
// it off.
func (p *queryPlan) observe(rows int, truncated bool) {
	p.seconds.ObserveSince(p.t0)
	queryRows.Add(uint64(rows))
	if truncated {
		queryTruncations.Inc()
	}
}

// Entails reports D ⊨ h: whether h, blank nodes as unknowns, maps into
// the prepared cl(D) (Theorem 2.8). The hom.Finder search interns h's
// terms into a scratch overlay.
func (db *DB) Entails(ctx context.Context, h *Graph) (bool, error) {
	st, _, err := db.universe(ctx, false)
	if err != nil {
		return false, err
	}
	_, ok, err := hom.NewFinder(st.ix).FindCtx(ctx, h.Triples())
	return ok, wrapEngineError(err)
}

// Prove decides D ⊨ h and returns a checked derivation when it holds.
// Like the package-level Prove it runs on scratch overlays, so neither
// the database nor h gains terms.
func (db *DB) Prove(h *Graph) (*Proof, bool) { return Prove(db.snapshot(), h) }

// Equivalent reports D ≡ h: Entails, then h ⊨ D over a scratch overlay
// of h's dictionary, so h gains no terms from D or from cl(h).
func (db *DB) Equivalent(ctx context.Context, h *Graph) (bool, error) {
	st, _, err := db.universe(ctx, false)
	if err != nil {
		return false, err
	}
	return equivalentIn(ctx, st, h)
}

// equivalentIn decides D ≡ h for the snapshot D the prepared cl(D) st
// covers, so both halves read one snapshot.
func equivalentIn(ctx context.Context, st *preparedState, h *Graph) (bool, error) {
	if _, ok, err := hom.NewFinder(st.ix).FindCtx(ctx, h.Triples()); !ok || err != nil {
		return false, wrapEngineError(err)
	}
	return Entails(ctx, h, st.base)
}

// Closure returns cl(D): an independent copy of the prepared cl(D) on a
// fresh scratch overlay. Writes to it reach neither the database nor
// its cached universe.
func (db *DB) Closure(ctx context.Context) (*Graph, error) {
	return db.universeCopy(ctx, false)
}

// Core returns core(D).
func (db *DB) Core(ctx context.Context) (*Graph, error) {
	return CoreOf(ctx, db.snapshot())
}

// NormalForm returns nf(D) = core(cl(D)), copied from the prepared
// universe like Closure: one copy of cl(D) without the triples nf(D)
// hides.
func (db *DB) NormalForm(ctx context.Context) (*Graph, error) {
	return db.universeCopy(ctx, true)
}

// universeCopy is Closure (nf false) and NormalForm (nf true).
func (db *DB) universeCopy(ctx context.Context, nf bool) (*Graph, error) {
	st, _, err := db.universe(ctx, nf)
	if err != nil {
		return nil, err
	}
	return st.copy(), nil
}

// copy returns the universe as an independent graph on a fresh scratch
// overlay: writes to it reach neither the database nor the cache.
func (st *preparedState) copy() *graph.Graph { return st.ix.Clone(st.ix.Dict().Scratch()) }

// MinimalRepresentation returns the unique minimal representation of D
// (Theorem 3.16); see the package-level function for the error
// contract.
func (db *DB) MinimalRepresentation() (*Graph, error) {
	return MinimalRepresentation(db.snapshot())
}

// Canonical returns D with canonically relabelled blank nodes. The
// result lives on a scratch overlay: the canonical labels are not
// interned into the shared dictionary.
func (db *DB) Canonical() *Graph { return Canonicalize(db.snapshot()) }

// Fingerprint returns the equivalence certificate of D: the canonical
// serialization of the prepared nf(D), computed once per prepared state.
func (db *DB) Fingerprint(ctx context.Context) (string, error) {
	st, _, err := db.universe(ctx, true)
	if err != nil {
		return "", err
	}
	st.fpOnce.Do(func() { st.fp = canon.String(st.copy()) })
	return st.fp, nil
}

// IsLean reports whether D is lean.
func (db *DB) IsLean(ctx context.Context) (bool, error) {
	return IsLean(ctx, db.snapshot())
}

// IsSimple reports whether D is a simple graph.
func (db *DB) IsSimple() bool { return IsSimple(db.snapshot()) }
