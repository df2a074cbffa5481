package semweb

// The replication crash/failover matrix. A deterministic in-process
// leader+follower pair — the follower wired through followSource with
// test-speed polling, the leader served through the same
// ReplState/ReplSnapshot/ReplTail methods semwebd exposes — is killed
// and restarted at chosen batch and byte boundaries, and convergence is
// proven the strong way: Fingerprint equality (the paper's
// normal-form-based graph identity) plus byte equality of the
// follower's mirrored WAL against the leader's, which rules out
// duplicate application as well as loss.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"semwebdb/internal/obs"
	"semwebdb/internal/persist"
	"semwebdb/internal/repl"
)

// dbSource adapts a leader *DB into a repl.Source, the in-process
// equivalent of the HTTP client semwebd followers dial.
type dbSource struct{ db *DB }

func (s dbSource) State(ctx context.Context) (repl.State, error) {
	st, err := s.db.ReplState()
	if err != nil {
		return repl.State{}, err
	}
	return repl.State{
		Replica:       st.Replica,
		Generation:    st.Generation,
		WALSize:       st.WALSize,
		WALRecords:    st.WALRecords,
		SnapshotBytes: st.SnapshotBytes,
	}, nil
}

func (s dbSource) Snapshot(ctx context.Context, gen uint64) (io.ReadCloser, int64, error) {
	return s.db.ReplSnapshot(gen)
}

func (s dbSource) Tail(ctx context.Context, gen uint64, from int64, max int, wait time.Duration) (repl.Chunk, error) {
	c, err := s.db.ReplTail(ctx, gen, from, max, wait)
	if err != nil {
		return repl.Chunk{}, err
	}
	return repl.Chunk(c), nil
}

// fastTune shortens the follower's poll and backoff windows to test
// speed.
func fastTune(cfg *repl.Config) {
	cfg.Wait = 50 * time.Millisecond
	cfg.Backoff = 5 * time.Millisecond
}

// follow opens dir as a replica of leader with test-speed polling.
func follow(t *testing.T, dir string, leader *DB) *DB {
	t.Helper()
	db, err := followSource(dir, "default", dbSource{leader}, fastTune, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadBatch writes n triples to the leader in one Add (= one WAL
// append = one replication batch).
func loadBatch(t *testing.T, db *DB, n, base int) {
	t.Helper()
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = T(IRI(fmt.Sprintf("urn:s:%d", base+i)), IRI("urn:p"), Literal(fmt.Sprintf("v%d", base+i)))
	}
	if err := db.Add(ts...); err != nil {
		t.Fatal(err)
	}
}

// waitReplica polls the replica's ReplState until it has applied the
// leader's entire durable log (same generation, equal offsets).
func waitReplica(t *testing.T, replica, leader *DB) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ls, err := leader.ReplState()
		if err != nil {
			t.Fatal(err)
		}
		rs, err := replica.ReplState()
		if err != nil {
			t.Fatal(err)
		}
		if rs.LeaderGeneration == ls.Generation && rs.AppliedBytes == ls.WALSize && rs.AppliedRecords == ls.WALRecords {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: replica %+v, leader %+v", rs, ls)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertConverged proves replica == leader two independent ways:
// Fingerprint equality of the served graphs, and byte equality of the
// mirrored WAL (which duplicate application would grow).
func assertConverged(t *testing.T, replica, leader *DB, replicaDir, leaderDir string) {
	t.Helper()
	ctx := context.Background()
	lf, err := leader.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := replica.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lf != rf {
		t.Fatalf("fingerprints diverge:\n  leader  %s (%d triples)\n  replica %s (%d triples)", lf, leader.Len(), rf, replica.Len())
	}
	lb, err := os.ReadFile(filepath.Join(leaderDir, persist.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(filepath.Join(replicaDir, persist.WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(lb) != len(rb) {
		t.Fatalf("mirror is %d bytes, leader log %d: lost or duplicated records", len(rb), len(lb))
	}
	for i := range lb {
		if lb[i] != rb[i] {
			t.Fatalf("mirror diverges from leader log at byte %d", i)
		}
	}
}

// recordEnds parses a WAL file independently of the engine and returns
// the byte offset at which each record frame ends — the crash matrix's
// truncation points.
func recordEnds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < persist.WALHeaderSize {
		t.Fatalf("WAL shorter than its header: %d bytes", len(data))
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	var ends []int64
	off := int64(persist.WALHeaderSize)
	for off < int64(len(data)) {
		n := binary.LittleEndian.Uint32(data[off : off+4])
		payload := data[off+8 : off+8+int64(n)]
		if crc32.Checksum(payload, table) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			t.Fatalf("frame at offset %d fails its checksum", off)
		}
		off += 8 + int64(n)
		ends = append(ends, off)
	}
	return ends
}

// TestReplBasicConvergence: batches loaded on the leader stream to the
// follower; queries answer on the follower; every mutation on the
// follower is refused with ErrReplica; Stats reports the replica role
// and the delta counters show replicated batches rode the incremental
// prepared path.
func TestReplBasicConvergence(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	loadBatch(t, leader, 20, 0)

	replica := follow(t, replicaDir, leader)
	defer replica.Close()
	waitReplica(t, replica, leader)

	// Prepare a query on the replica, then keep loading: the follower
	// publishes batches through noteInsertLocked, so the prepared plan
	// must be maintained on the delta path, exactly like leader writes.
	ctx := context.Background()
	q := mustParseQuery(t, "HEAD:\n?X <urn:q> ?Y .\nBODY:\n?X <urn:p> ?Y .\n")
	if _, err := replica.Eval(ctx, q); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		loadBatch(t, leader, 10, 100+100*b)
	}
	waitReplica(t, replica, leader)
	assertConverged(t, replica, leader, replicaDir, leaderDir)

	ans, err := replica.Eval(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ans.Singles()); got != 50 {
		t.Fatalf("replica query answered %d rows, want 50", got)
	}

	st := replica.Stats()
	if !st.Replica || !st.Persistent {
		t.Fatalf("replica Stats misreports its role: %+v", st)
	}
	if st.ReplLagBytes != 0 || st.ReplAppliedBytes == 0 {
		t.Fatalf("replica Stats lag/offset wrong at quiescence: %+v", st)
	}
	if st.PreparedDelta == 0 {
		t.Fatalf("replicated batches never rode the delta path: %+v", st)
	}

	// Every mutation path refuses.
	if err := replica.Add(T(IRI("urn:x"), IRI("urn:p"), Literal("v"))); !errors.Is(err, ErrReplica) {
		t.Fatalf("Add on a replica: %v, want ErrReplica", err)
	}
	if err := replica.Snapshot(); !errors.Is(err, ErrReplica) {
		t.Fatalf("Snapshot on a replica: %v, want ErrReplica", err)
	}
	if err := replica.Compact(); !errors.Is(err, ErrReplica) {
		t.Fatalf("Compact on a replica: %v, want ErrReplica", err)
	}
}

// TestReplCrashRestartMatrix is the tentpole: the follower is killed at
// every record boundary of its mirrored log — and at ragged offsets
// inside frames, and in mid-bootstrap states — then restarted against
// the live leader, and must converge to Fingerprint equality with no
// duplicate application every single time.
func TestReplCrashRestartMatrix(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	// Several small batches so the matrix crosses batch boundaries too.
	for b := 0; b < 4; b++ {
		loadBatch(t, leader, 5, 100*b)
	}

	// One synced mirror, used as the template every matrix entry
	// mutates a fresh copy of.
	templateDir := t.TempDir()
	replica := follow(t, templateDir, leader)
	waitReplica(t, replica, leader)
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	ends := recordEnds(t, filepath.Join(templateDir, persist.WALFile))
	if len(ends) < 20 {
		t.Fatalf("matrix too small: %d records", len(ends))
	}

	// Crash points: the mirror truncated at every record boundary
	// (including just the header: offset WALHeaderSize), and ragged
	// mid-frame offsets that model a torn local write.
	points := []int64{persist.WALHeaderSize}
	points = append(points, ends...)
	for _, e := range ends[:len(ends)-1] {
		points = append(points, e+3) // mid-frame: torn tail
	}

	copyDir := func(t *testing.T, dst string) {
		t.Helper()
		entries, err := os.ReadDir(templateDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(templateDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, cut := range points {
		t.Run(fmt.Sprintf("truncate@%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dir)
			if err := os.Truncate(filepath.Join(dir, persist.WALFile), cut); err != nil {
				t.Fatal(err)
			}
			r := follow(t, dir, leader)
			defer r.Close()
			waitReplica(t, r, leader)
			assertConverged(t, r, leader, dir, leaderDir)
		})
	}

	// Mid-bootstrap crash states: the provisional marker with the data
	// files in every partial combination a crash can leave.
	midBootstrap := map[string]func(t *testing.T, dir string){
		"provisional meta, files intact": func(t *testing.T, dir string) {},
		"provisional meta, no wal": func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, persist.WALFile)); err != nil {
				t.Fatal(err)
			}
		},
		"provisional meta, empty dir": func(t *testing.T, dir string) {
			for _, name := range []string{persist.WALFile, persist.SnapshotFile} {
				if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			}
		},
		"provisional meta, truncated wal": func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, persist.WALFile), 11); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range midBootstrap {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(dir, persist.MirrorFile), []byte(`{"generation":"0"}`), 0o644); err != nil {
				t.Fatal(err)
			}
			damage(t, dir)
			r := follow(t, dir, leader)
			defer r.Close()
			waitReplica(t, r, leader)
			assertConverged(t, r, leader, dir, leaderDir)
		})
	}
}

// TestReplGenerationSwitch: the leader compacts (and later snapshots)
// while the follower tails; each switch voids the follower's offsets
// and must end in a re-bootstrap that converges.
func TestReplGenerationSwitch(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	loadBatch(t, leader, 15, 0)

	replica := follow(t, replicaDir, leader)
	defer replica.Close()
	waitReplica(t, replica, leader)

	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	loadBatch(t, leader, 10, 100)
	waitReplica(t, replica, leader)
	assertConverged(t, replica, leader, replicaDir, leaderDir)

	st, err := replica.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bootstraps < 2 {
		t.Fatalf("Bootstraps = %d after a compaction switch, want >= 2", st.Bootstraps)
	}

	// A second switch via Snapshot (checkpoint): same contract.
	if err := leader.Snapshot(); err != nil {
		t.Fatal(err)
	}
	loadBatch(t, leader, 5, 500)
	waitReplica(t, replica, leader)
	assertConverged(t, replica, leader, replicaDir, leaderDir)
}

// TestReplStaleOffsetRebootstraps: a follower that was down across the
// leader's generation switch reconnects with a pre-switch offset; the
// leader must refuse to serve it a mismatched-generation tail, and the
// follower must re-bootstrap rather than apply one.
func TestReplStaleOffsetRebootstraps(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	loadBatch(t, leader, 12, 0)

	replica := follow(t, replicaDir, leader)
	waitReplica(t, replica, leader)
	preSwitch, err := replica.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	// Switch generations while it is down; the old offset now points
	// into a log that no longer exists.
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	loadBatch(t, leader, 8, 200)

	// The leader refuses the stale coordinates outright.
	if _, err := leader.ReplTail(context.Background(), preSwitch.Generation, preSwitch.AppliedBytes, 1<<20, 0); !errors.Is(err, ErrWrongGeneration) {
		t.Fatalf("stale tail request: %v, want ErrWrongGeneration", err)
	}

	r2 := follow(t, replicaDir, leader)
	defer r2.Close()
	waitReplica(t, r2, leader)
	assertConverged(t, r2, leader, replicaDir, leaderDir)
	st, err := r2.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Bootstraps == 0 {
		t.Fatal("stale follower reconnected without re-bootstrapping")
	}
}

// TestReplLeaderRestart: a leader restart mints a new generation even
// though the log bytes may be identical; the connected follower takes
// the conservative re-bootstrap and converges.
func TestReplLeaderRestart(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	loadBatch(t, leader, 10, 0)

	replica := follow(t, replicaDir, leader)
	defer replica.Close()
	waitReplica(t, replica, leader)
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	leader2, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader2.Close()
	loadBatch(t, leader2, 6, 100)

	r2 := follow(t, replicaDir, leader2)
	defer r2.Close()
	waitReplica(t, r2, leader2)
	assertConverged(t, r2, leader2, replicaDir, leaderDir)
}

// TestReplMetricsAgreeWithStats: at quiescence the semwebd_repl_*
// gauges and the Stats/ReplState fields tell the same story, like the
// query metrics/Stats agreement the metrics tests pin.
func TestReplMetricsAgreeWithStats(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	loadBatch(t, leader, 10, 0)

	// A unique metrics label: the gauges are process-global, so this
	// test must not share children with other replicas in the package.
	name := fmt.Sprintf("metrics-agree-%d", time.Now().UnixNano())
	replica, err := followSource(replicaDir, name, dbSource{leader}, fastTune, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitReplica(t, replica, leader)

	st := replica.Stats()
	rs, err := replica.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplLagBytes != rs.LagBytes || st.ReplAppliedBytes != rs.AppliedBytes || st.ReplLagRecords != rs.LagRecords || st.ReplAppliedRecords != rs.AppliedRecords {
		t.Fatalf("Stats %+v disagrees with ReplState %+v", st, rs)
	}
	// Re-registering a family returns the existing one, so these resolve
	// the very gauge children the follower updates.
	lag := obs.Default.GaugeVec("semwebd_repl_lag_bytes", "", "db").With(name)
	lagRecs := obs.Default.GaugeVec("semwebd_repl_lag_records", "", "db").With(name)
	applied := obs.Default.GaugeVec("semwebd_repl_applied_bytes", "", "db").With(name)
	if got := lag.Value(); got != st.ReplLagBytes {
		t.Fatalf("semwebd_repl_lag_bytes = %d, Stats.ReplLagBytes = %d", got, st.ReplLagBytes)
	}
	if got := lagRecs.Value(); int(got) != st.ReplLagRecords {
		t.Fatalf("semwebd_repl_lag_records = %d, Stats.ReplLagRecords = %d", got, st.ReplLagRecords)
	}
	if got := applied.Value(); got != st.ReplAppliedBytes {
		t.Fatalf("semwebd_repl_applied_bytes = %d, Stats.ReplAppliedBytes = %d", got, st.ReplAppliedBytes)
	}
}

// gatedSource serves the leader's log one complete record frame per
// tail chunk, and only below an offset the test releases: a tail
// request at or past it is answered with a heartbeat after the poll
// window. heldAt is the offset of the last held request — the
// follower's whole applied state, chunk committed included.
type gatedSource struct {
	dbSource
	mu     sync.Mutex
	limit  int64
	heldAt int64
}

func (s *gatedSource) release(limit int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = limit
}

func (s *gatedSource) held() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heldAt
}

func (s *gatedSource) Tail(ctx context.Context, gen uint64, from int64, max int, wait time.Duration) (repl.Chunk, error) {
	s.mu.Lock()
	held := from >= s.limit
	if held {
		s.heldAt = from
	}
	s.mu.Unlock()
	if held {
		select {
		case <-ctx.Done():
			return repl.Chunk{}, ctx.Err()
		case <-time.After(wait):
		}
		return repl.Chunk{Generation: gen, From: from, WALSize: from}, nil
	}
	c, err := s.dbSource.Tail(ctx, gen, from, max, wait)
	if err != nil || len(c.Data) < 8 {
		return c, err
	}
	if n := 8 + int(binary.LittleEndian.Uint32(c.Data[:4])); n < len(c.Data) {
		c.Data = c.Data[:n]
	}
	return c, nil
}

// TestReplDefineOnlyChunkKeepsPrepared: a tail chunk that carries only
// the define record of a leader write adds no triple, so the replica
// must not publish a new snapshot — one would no longer match the
// prepared universe, and the next read would re-prepare cl(D) from
// scratch. The leader does one full prepare for the same write; so
// must the replica.
func TestReplDefineOnlyChunkKeepsPrepared(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	loadBatch(t, leader, 20, 0)

	src := &gatedSource{dbSource: dbSource{leader}, limit: math.MaxInt64}
	replica, err := followSource(replicaDir, "default", src, fastTune, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	waitReplica(t, replica, leader)

	ctx := context.Background()
	q := mustParseQuery(t, "HEAD:\n?X <urn:q> ?Y .\nBODY:\n?X <urn:p> ?Y .\n")
	read := func(want int) {
		t.Helper()
		ans, err := replica.Eval(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(ans.Singles()); got != want {
			t.Fatalf("replica answered %d rows, want %d", got, want)
		}
	}
	read(20)

	before, err := leader.ReplState()
	if err != nil {
		t.Fatal(err)
	}
	src.release(before.WALSize)
	// One new term: the write logs one define record, then the triple.
	if err := leader.Add(T(IRI("urn:s:0"), IRI("urn:p"), IRI("urn:fresh"))); err != nil {
		t.Fatal(err)
	}
	var defineEnd int64
	for _, end := range recordEnds(t, filepath.Join(leaderDir, persist.WALFile)) {
		if end > before.WALSize {
			defineEnd = end
			break
		}
	}
	src.release(defineEnd)
	deadline := time.Now().Add(15 * time.Second)
	for src.held() != defineEnd {
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached the define record's end %d", defineEnd)
		}
		time.Sleep(2 * time.Millisecond)
	}
	read(20)
	if st := replica.Stats(); st.PreparedFull != 1 {
		t.Fatalf("define-only chunk: replica PreparedFull = %d, want 1: %+v", st.PreparedFull, st)
	}

	src.release(math.MaxInt64)
	waitReplica(t, replica, leader)
	read(21)
	if st := replica.Stats(); st.PreparedFull != 1 || st.PreparedDelta == 0 {
		t.Fatalf("replicated write: PreparedFull = %d, PreparedDelta = %d, want 1 and > 0", st.PreparedFull, st.PreparedDelta)
	}
	assertConverged(t, replica, leader, replicaDir, leaderDir)
}

// TestReplCountersMatchLeaderUnderBlankNodes: leader and replica commit
// every batch through the same path, so the prepared cache must take
// the same route on both sides — the delta path into cl(D) for every
// batch, with nf(D) discarded by a batch with a blank node and by any
// batch over the non-ground base it leaves, nothing at all for a batch
// that adds nothing — while both serve the from-scratch nf(D) after
// every step.
func TestReplCountersMatchLeaderUnderBlankNodes(t *testing.T) {
	leaderDir, replicaDir := t.TempDir(), t.TempDir()
	leader, err := OpenAt(leaderDir, WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	loadBatch(t, leader, 10, 0)
	replica := follow(t, replicaDir, leader)
	defer replica.Close()

	steps := []struct {
		name  string
		write func() error
	}{
		{"warm", func() error { return nil }},
		{"ground batch", func() error { loadBatch(t, leader, 5, 100); return nil }},
		{"duplicate-only add", func() error {
			return leader.Add(T(IRI("urn:s:0"), IRI("urn:p"), Literal("v0")))
		}},
		{"blank-node batch", func() error {
			return leader.Add(T(Blank("b"), IRI("urn:p"), Literal("anon")), T(IRI("urn:s:200"), IRI("urn:p"), Blank("b")))
		}},
		{"ground batch over a non-ground base", func() error { loadBatch(t, leader, 5, 300); return nil }},
	}
	for _, step := range steps {
		if err := step.write(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		waitReplica(t, replica, leader)
		assertConverged(t, replica, leader, replicaDir, leaderDir)
		got, err := replica.Fingerprint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want, err := Fingerprint(context.Background(), replica.Graph()); err != nil || got != want {
			t.Fatalf("after %s the replica's fingerprint (%v) differs from the from-scratch one", step.name, err)
		}
		ls, rs := leader.Stats(), replica.Stats()
		if ls.PreparedFull != rs.PreparedFull || ls.PreparedDelta != rs.PreparedDelta ||
			ls.PreparedFallbackNonGroundBatch != rs.PreparedFallbackNonGroundBatch ||
			ls.PreparedFallbackNonGroundBase != rs.PreparedFallbackNonGroundBase {
			t.Fatalf("after %s the prepared cache took different routes:\n  leader  full %d delta %d non-ground batch %d base %d\n  replica full %d delta %d non-ground batch %d base %d",
				step.name,
				ls.PreparedFull, ls.PreparedDelta, ls.PreparedFallbackNonGroundBatch, ls.PreparedFallbackNonGroundBase,
				rs.PreparedFull, rs.PreparedDelta, rs.PreparedFallbackNonGroundBatch, rs.PreparedFallbackNonGroundBase)
		}
	}
	st := replica.Stats()
	if st.PreparedFull != 1 || st.PreparedDelta != 3 || st.PreparedFallbackNonGroundBatch != 1 || st.PreparedFallbackNonGroundBase != 1 {
		t.Fatalf("replica counters %+v, want one saturation, three delta passes and one discarded nf(D) of each non-ground kind", st)
	}
}
