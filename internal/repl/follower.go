package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/persist"
)

// Config configures a Follower.
type Config struct {
	// Dir is the local mirror directory (created if missing). It must
	// be dedicated to this follower.
	Dir string
	// Source is the leader.
	Source Source
	// Name labels this follower's metrics (the db label; "default" when
	// empty).
	Name string
	// NoSync disables fsync on the local mirror.
	NoSync bool
	// MaxChunk is the per-request tail byte budget (DefaultMaxChunk
	// when 0).
	MaxChunk int
	// Wait is the long-poll window per tail request (10s when 0).
	Wait time.Duration
	// Backoff is the delay before retrying after a transport error
	// (500ms when 0).
	Backoff time.Duration
}

// Status is a point-in-time view of a follower's progress.
type Status struct {
	// Generation is the leader WAL generation the mirror tracks.
	Generation uint64
	// AppliedBytes/AppliedRecords are the durable local mirror totals —
	// byte-for-byte prefixes of the leader's log, so AppliedBytes is
	// also the replication offset.
	AppliedBytes   int64
	AppliedRecords int
	// LeaderWALSize/LeaderWALRecords are the leader's durable totals as
	// of the last tail response (or bootstrap).
	LeaderWALSize    int64
	LeaderWALRecords int
	// LagBytes/LagRecords are the leader totals minus the applied
	// totals at that same observation.
	LagBytes   int64
	LagRecords int
	// Bootstraps counts full snapshot syncs (initial plus generation
	// switches); Reconnects counts transport-error retries.
	Bootstraps uint64
	Reconnects uint64
}

// Sink owns the follower's replicated state; the follower keeps no
// graph. Commit is called once per tail chunk that held complete
// records, after their bytes are durable in the local mirror, with
// every triple they carry — duplicates included, none when the chunk
// held only define records — encoded against the dictionary of Open's
// graph or the last Reset. Reset replaces everything after a
// re-bootstrap: prior dictionaries and graphs are obsolete.
type Sink interface {
	Reset(d *dict.Dict, g *graph.Graph)
	Commit(batch []dict.Triple3)
}

// Follower mirrors a leader's durable log into a local database
// directory and hands the decoded records to a Sink as they arrive.
// Open establishes a servable state (bootstrapping from the leader
// only when the local mirror is missing or unusable) and returns it;
// Run tails the leader until the context ends, feeding a Sink. Methods
// other than Run and Close are safe to call concurrently with Run.
type Follower struct {
	cfg Config
	mg  gauges

	mu sync.Mutex
	// eng through gen are published under mu for concurrent readers
	// (Engine, Status); the Run/bootstrap goroutine is their sole
	// writer and reads them without the lock.
	eng    *persist.Engine
	d      *dict.Dict // the mirror's dictionary, which records decode into
	gen    uint64     // leader generation mirrored
	stage  []byte     // guarded by mu; fetched beyond durable: a partial record frame
	status Status     // guarded by mu
}

// Open prepares a follower over dir. When dir already holds a mirror
// of the leader's current or a previous generation, it is recovered
// locally (torn tails truncated by ordinary WAL recovery) without
// contacting the leader — a replica restarts into service even while
// its leader is down, serving its last applied state until Run
// reconnects. Otherwise the leader is contacted for a full bootstrap
// (persist.InstallMirror), which refuses a directory that holds a
// database but no mirror marker. The caller owns the returned graph,
// the mirror's state, and keeps it current as the Sink Run feeds.
func Open(ctx context.Context, cfg Config) (*Follower, *graph.Graph, error) {
	if cfg.Dir == "" || cfg.Source == nil {
		return nil, nil, fmt.Errorf("repl: Config.Dir and Config.Source are required")
	}
	if cfg.Name == "" {
		cfg.Name = "default"
	}
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = DefaultMaxChunk
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 10 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	f := &Follower{cfg: cfg, mg: newGauges(cfg.Name)}

	gen, err := persist.MirrorGeneration(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("repl: %w", err)
	}
	if gen != 0 {
		if g, err := f.openLocal(gen); err == nil {
			return f, g, nil
		}
		// The local mirror did not recover (damage past what WAL
		// recovery absorbs). It is only a cache of the leader's log:
		// fall through to a fresh bootstrap.
	}
	g, err := f.bootstrap(ctx)
	if err != nil {
		return nil, nil, err
	}
	return f, g, nil
}

// openLocal recovers the existing mirror without contacting the
// leader, installs it into the follower and returns its graph.
func (f *Follower) openLocal(gen uint64) (*graph.Graph, error) {
	eng, d, g, err := persist.Open(f.cfg.Dir, persist.Options{
		// Never compact a mirror: its WAL must stay a byte prefix of
		// the leader's.
		CompactThreshold: -1,
		NoSync:           f.cfg.NoSync,
	})
	if err != nil {
		return nil, err
	}
	ts := eng.TailState()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.eng = eng
	f.d = d
	f.gen = gen
	f.stage = nil
	f.status.Generation = gen
	f.status.AppliedBytes = ts.WALSize
	f.status.AppliedRecords = ts.WALRecords
	// The mirror is a prefix of this generation's leader log, so its
	// totals are the best-known leader state until the first tail
	// chunk refreshes them; zero lag, not a stale pre-install reading.
	f.status.LeaderWALSize = ts.WALSize
	f.status.LeaderWALRecords = ts.WALRecords
	f.status.LagBytes = 0
	f.status.LagRecords = 0
	f.mg.appliedBytes.Set(ts.WALSize)
	f.mg.lagBytes.Set(0)
	f.mg.lagRecords.Set(0)
	return g, nil
}

// bootstrap rebuilds the mirror from the leader's current generation
// (persist.InstallMirror owns the crash-safe order: provisional
// marker, wipe, snapshot, WAL prefix, final marker), opens it and
// returns its graph. A generation switch racing the bootstrap restarts
// it.
func (f *Follower) bootstrap(ctx context.Context) (*graph.Graph, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g, err := f.bootstrapOnce(ctx)
		if err == nil {
			f.mg.bootstraps.Inc()
			f.mu.Lock()
			f.status.Bootstraps++
			f.mu.Unlock()
			return g, nil
		}
		if !errors.Is(err, persist.ErrWrongGeneration) {
			return nil, err
		}
		// The leader compacted or swapped mid-bootstrap; start over on
		// its new generation.
	}
}

func (f *Follower) bootstrapOnce(ctx context.Context) (*graph.Graph, error) {
	if f.eng != nil {
		f.eng.Close()
		f.mu.Lock()
		f.eng = nil
		f.mu.Unlock()
	}
	st, err := f.cfg.Source.State(ctx)
	if err != nil {
		return nil, err
	}
	gen := st.Generation
	rc, _, err := f.cfg.Source.Snapshot(ctx, gen)
	if err != nil {
		return nil, err
	}
	if rc != nil {
		defer rc.Close()
	}
	copyWAL := func(w io.Writer) error {
		for off := int64(0); ; {
			chunk, err := f.cfg.Source.Tail(ctx, gen, off, f.cfg.MaxChunk, 0)
			if err != nil {
				return err
			}
			if _, err := w.Write(chunk.Data); err != nil {
				return err
			}
			if off += int64(len(chunk.Data)); off >= chunk.WALSize {
				return nil
			}
		}
	}
	if err := persist.InstallMirror(f.cfg.Dir, gen, rc, copyWAL, !f.cfg.NoSync); err != nil {
		return nil, err
	}
	return f.openLocal(gen)
}

// Run tails the leader until ctx ends, applying batches through sink.
// Transport errors and frames damaged in transit retry with backoff
// from the durable offset; generation switches and records that do
// not apply re-bootstrap (the sink gets a Reset), and so does a
// failed re-bootstrap, until one succeeds.
func (f *Follower) Run(ctx context.Context, sink Sink) error {
	rebuild := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if rebuild {
			g, err := f.bootstrap(ctx)
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if !f.noteRetry(ctx, err) {
					return err
				}
				continue
			}
			sink.Reset(g.Dict(), g)
			rebuild = false
		}
		from := f.fetchedOffset()
		chunk, err := f.cfg.Source.Tail(ctx, f.gen, from, f.cfg.MaxChunk, f.cfg.Wait)
		if err == nil {
			if chunk.Generation != f.gen || chunk.From != from {
				// A response for coordinates we did not ask for cannot
				// be applied at this offset; treat it like damage in
				// transit and re-request.
				err = fmt.Errorf("repl: chunk for gen %d offset %d, asked for gen %d offset %d", chunk.Generation, chunk.From, f.gen, from)
			} else if err = f.applyChunk(chunk, sink); err != nil && !errors.Is(err, persist.ErrBadFrame) {
				// A record that does not apply to this state, or a local
				// append failure: the mirror can no longer be trusted to
				// extend; rebuild it.
				rebuild = true
				continue
			}
		}
		switch {
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, persist.ErrWrongGeneration):
			rebuild = true
		case err != nil:
			// Transport errors and frames damaged in transit: re-read
			// the (immutable within the generation) range from the
			// durable offset.
			if !f.noteRetry(ctx, err) {
				return err
			}
		}
	}
}

// fetchedOffset is the leader-log offset to request next: durable
// mirror bytes plus any staged partial frame.
func (f *Follower) fetchedOffset() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status.AppliedBytes + int64(len(f.stage))
}

// noteRetry counts a transport retry and sleeps the backoff; false
// means ctx ended first.
func (f *Follower) noteRetry(ctx context.Context, cause error) bool {
	f.mg.reconnects.Inc()
	f.mu.Lock()
	f.status.Reconnects++
	f.mu.Unlock()
	select {
	case <-ctx.Done():
		return false
	case <-time.After(f.cfg.Backoff):
		return true
	}
}

// applyChunk stages the chunk's bytes behind any partial frame held
// from earlier chunks and hands them to the mirror engine, which
// verifies, decodes and durably appends every complete frame
// (durability before visibility, the leader's own ordering), then
// passes the decoded batch to the sink to commit and reports the bytes
// applied. On error nothing was appended and the staged bytes are
// dropped: the next request re-reads from the durable offset.
func (f *Follower) applyChunk(chunk Chunk, sink Sink) error {
	f.mu.Lock()
	stage := append(f.stage, chunk.Data...)
	applied := f.status.AppliedRecords
	f.mu.Unlock()

	batch, n, err := f.eng.AppendFrames(f.d, stage)
	if err != nil {
		f.mu.Lock()
		f.stage = nil
		f.mu.Unlock()
		return err
	}
	rest := stage[n:]
	if n > 0 {
		rest = bytes.Clone(rest) // release the appended prefix
	}

	ts := f.eng.TailState()
	records := ts.WALRecords - applied
	if records > 0 {
		// Committed before Status reports the bytes applied, so a
		// caller that sees the new offset reads a sink holding them.
		sink.Commit(batch)
		f.mg.batches.Inc()
		f.mg.records.Add(uint64(records))
	}
	lagBytes := max(chunk.WALSize-ts.WALSize, 0)
	lagRecords := max(chunk.WALRecords-ts.WALRecords, 0)

	f.mu.Lock()
	f.stage = rest
	f.status.AppliedBytes = ts.WALSize
	f.status.AppliedRecords = ts.WALRecords
	f.status.LeaderWALSize = chunk.WALSize
	f.status.LeaderWALRecords = chunk.WALRecords
	f.status.LagBytes = lagBytes
	f.status.LagRecords = lagRecords
	f.mu.Unlock()

	f.mg.appliedBytes.Set(ts.WALSize)
	f.mg.lagBytes.Set(lagBytes)
	f.mg.lagRecords.Set(int64(lagRecords))
	return nil
}

// Engine exposes the mirror's storage engine — its tail API is what
// lets a replica lead further replicas, and its Stats feed the serving
// layer.
func (f *Follower) Engine() *persist.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eng
}

// Status returns a copy of the follower's progress counters.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

// Close closes the local mirror. Call after Run has returned.
func (f *Follower) Close() error {
	f.mu.Lock()
	eng := f.eng
	f.mu.Unlock()
	if eng == nil {
		return nil
	}
	return eng.Close()
}
