package semweb

import (
	"context"
	"fmt"
	"io"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/persist"
	"semwebdb/internal/repl"
)

// FollowAt opens dir as a read replica of the database name on the
// semwebd leader at base (scheme://host:port; a bare host:port gets
// http://). The replica bootstraps from the leader's current snapshot
// on first start, mirrors the leader's write-ahead log byte for byte
// into dir, and applies batches as they arrive through the same
// idempotent replay path crash recovery uses — including incremental
// prepared-cache maintenance, so a replica under query load absorbs
// replicated batches on the delta path just like a leader absorbs its
// own writes.
//
// The returned database serves reads and queries only: mutations fail
// with ErrReplica. If dir already holds a mirror, it is recovered
// locally and served immediately — even while the leader is down —
// and the tail loop reconnects in the background. A leader generation
// switch (checkpoint, compaction, restart) triggers an automatic
// re-bootstrap; queries keep running against the previous state until
// the new one is published. Close stops the tail loop and closes the
// mirror.
func FollowAt(dir, base, name string, opts ...Option) (*DB, error) {
	return followSource(dir, name, repl.Dial(base, name, nil), nil, opts...)
}

// followSource is FollowAt over an arbitrary replication source, with
// an optional tuning hook for the follower config (tests shorten the
// poll and backoff windows).
func followSource(dir, name string, src repl.Source, tune func(*repl.Config), opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	rcfg := repl.Config{
		Dir:    dir,
		Source: src,
		Name:   name,
		NoSync: cfg.noFsync,
	}
	if tune != nil {
		tune(&rcfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f, g, err := repl.Open(ctx, rcfg)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("semweb: opening replica: %w", err)
	}
	db := newDB(g.Dict(), g, nil, cfg)
	r := &replica{db: db, f: f, cancel: cancel, done: make(chan struct{})}
	db.replica = r
	go func() {
		defer close(r.done)
		f.Run(ctx, r)
	}()
	return db, nil
}

// replica is the follower machinery behind a read-replica DB. It is
// the follower's Sink: Commit lands each mirrored batch through the
// same commit a leader's own write takes — clone, add, publish and
// noteInsertLocked, so delta maintenance keeps the prepared cache warm
// under replicated writes — and Reset swaps in the post-bootstrap
// world where dictionary and IDs start over.
type replica struct {
	db     *DB
	f      *repl.Follower
	cancel context.CancelFunc
	done   chan struct{}
}

// Reset implements repl.Sink.
func (r *replica) Reset(d *dict.Dict, g *graph.Graph) {
	db := r.db
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.resetLocked(d, g)
}

// Commit implements repl.Sink. The batch is durable in the mirror
// already and a replica has no log of its own, so the commit cannot
// fail. A chunk committed while Close stops the tail loop is still
// published, as reads after Close see the last published snapshot.
func (r *replica) Commit(batch []dict.Triple3) {
	db := r.db
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	_ = db.commit(batch)
}

// stop tears the replica down: stop the tail loop, wait it out, close
// the mirror. Called by DB.Close outside commitMu — the tail loop may
// be blocked on commitMu inside Commit, so waiting for it under the
// lock would deadlock.
func (r *replica) stop() error {
	r.cancel()
	<-r.done
	return r.f.Close()
}

// engine is the storage engine backing db: the mirror's for a replica
// (nil in the mid-rebootstrap window, when the previous mirror is gone
// and the next one is not durable yet), the database's own otherwise
// (nil for an in-memory or read-only database). Stats, ReplState and
// the replication reads all resolve it here.
func (db *DB) engine() *persist.Engine {
	if db.replica != nil {
		return db.replica.f.Engine()
	}
	return db.eng
}

// replEngine is the storage engine whose log serves replication reads:
// the database's own for a leader, the mirror's for a replica — which
// is what lets replicas chain (a mirror is a byte-exact prefix of the
// leader's log, so tailing it is tailing the leader, one hop removed).
func (db *DB) replEngine() (*persist.Engine, error) {
	switch eng := db.engine(); {
	case eng != nil:
		return eng, nil
	case db.replica != nil:
		// Mid-rebootstrap: any generation a sub-follower asks about no
		// longer exists.
		return nil, ErrWrongGeneration
	default:
		return nil, ErrNotPersistent
	}
}

// ReplState is a database's replication state, served by semwebd's
// GET /v1/{db}/repl/state. The first fields describe the durable log
// this database can itself be followed from; the Leader*/Applied/Lag
// fields are present on replicas only and describe progress against
// the upstream leader.
type ReplState struct {
	// Replica reports whether this database follows a leader.
	Replica bool `json:"replica"`
	// Generation is the current WAL generation token of the servable
	// log; Tail offsets are only meaningful against it.
	Generation uint64 `json:"generation"`
	// WALSize is the durable log size in bytes, including the
	// persist.WALHeaderSize-byte file header.
	WALSize int64 `json:"wal_size"`
	// WALRecords is the number of durable log records.
	WALRecords int `json:"wal_records"`
	// SnapshotBytes is the size of the base snapshot (0 when none).
	SnapshotBytes int64 `json:"snapshot_bytes"`

	// LeaderGeneration is the leader WAL generation this replica's
	// mirror tracks. It differs from Generation: the mirror's own
	// engine mints a local token for its sub-followers, while offsets
	// against the leader are agreed in the leader's.
	LeaderGeneration uint64 `json:"leader_generation,omitempty"`
	// AppliedBytes/AppliedRecords are the replica's durable mirror
	// totals — AppliedBytes doubles as its offset in the leader's log.
	AppliedBytes   int64 `json:"applied_bytes,omitempty"`
	AppliedRecords int   `json:"applied_records,omitempty"`
	// LeaderWALSize/LeaderWALRecords are the leader's durable totals
	// at the last tail response; Lag* are the differences observed
	// then.
	LeaderWALSize    int64 `json:"leader_wal_size,omitempty"`
	LeaderWALRecords int   `json:"leader_wal_records,omitempty"`
	LagBytes         int64 `json:"lag_bytes,omitempty"`
	LagRecords       int   `json:"lag_records,omitempty"`
	// Bootstraps counts full snapshot syncs (the first sync plus one
	// per generation switch); Reconnects counts transport retries.
	Bootstraps uint64 `json:"bootstraps,omitempty"`
	Reconnects uint64 `json:"reconnects,omitempty"`
}

// ReplChunk is one replication batch: a verbatim byte range of the
// durable log plus the durable totals it was consistent with (which
// make every chunk a lag report).
type ReplChunk struct {
	Generation uint64
	From       int64
	WALSize    int64
	WALRecords int
	Data       []byte
}

// ReplState returns the database's replication state. It fails with
// ErrNotPersistent on an in-memory or read-only database — there is no
// durable log to follow.
func (db *DB) ReplState() (ReplState, error) {
	var st ReplState
	eng := db.engine()
	if db.replica != nil {
		// Fill the progress fields first, from the follower's own
		// status: they stay meaningful even in the mid-rebootstrap
		// window when no local engine is live (the engine-derived
		// fields are then zero — "not servable right now").
		fs := db.replica.f.Status()
		st.Replica = true
		st.LeaderGeneration = fs.Generation
		st.AppliedBytes = fs.AppliedBytes
		st.AppliedRecords = fs.AppliedRecords
		st.LeaderWALSize = fs.LeaderWALSize
		st.LeaderWALRecords = fs.LeaderWALRecords
		st.LagBytes = fs.LagBytes
		st.LagRecords = fs.LagRecords
		st.Bootstraps = fs.Bootstraps
		st.Reconnects = fs.Reconnects
	} else if eng == nil {
		return ReplState{}, ErrNotPersistent
	}
	if eng != nil {
		ts := eng.TailState()
		st.Generation = ts.Gen
		st.WALSize = ts.WALSize
		st.WALRecords = ts.WALRecords
		st.SnapshotBytes = ts.SnapshotBytes
	}
	return st, nil
}

// ReplSnapshot opens the base snapshot of the given WAL generation for
// streaming to a bootstrapping follower. A nil ReadCloser with nil
// error means the generation has no snapshot (its full state is the
// log alone); ErrWrongGeneration means the generation switched.
func (db *DB) ReplSnapshot(gen uint64) (io.ReadCloser, int64, error) {
	eng, err := db.replEngine()
	if err != nil {
		return nil, 0, err
	}
	return eng.OpenSnapshot(gen)
}

// ReplTail reads up to max bytes of the durable log of the given
// generation starting at byte offset from (0 includes the file
// header), long-polling up to wait when nothing new is durable — the
// expiry returns an empty heartbeat chunk, not an error. It fails with
// ErrWrongGeneration when the generation switched (or from is beyond
// the durable size), and with ErrNotPersistent when there is no log.
func (db *DB) ReplTail(ctx context.Context, gen uint64, from int64, max int, wait time.Duration) (ReplChunk, error) {
	eng, err := db.replEngine()
	if err != nil {
		return ReplChunk{}, err
	}
	c, err := repl.NewLeader(eng).Tail(ctx, gen, from, max, wait)
	if err != nil {
		return ReplChunk{}, err
	}
	return ReplChunk(c), nil
}
