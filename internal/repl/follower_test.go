package repl

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/persist"
	"semwebdb/internal/term"
)

// testLeader is a live storage engine plus the state it persists,
// served to followers through the in-process Leader source.
type testLeader struct {
	eng *persist.Engine
	d   *dict.Dict
	g   *graph.Graph
	dir string
}

func newTestLeader(t *testing.T) *testLeader {
	t.Helper()
	dir := t.TempDir()
	eng, d, g, err := persist.Open(dir, persist.Options{NoSync: true, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return &testLeader{eng: eng, d: d, g: g, dir: dir}
}

// add appends n fresh triples to the leader's durable log.
func (l *testLeader) add(t *testing.T, n, base int) {
	t.Helper()
	p := l.d.Intern(term.NewIRI("urn:p"))
	var batch []dict.Triple3
	for i := 0; i < n; i++ {
		enc := dict.Triple3{
			l.d.Intern(term.NewIRI(fmt.Sprintf("urn:s:%d", base+i))),
			p,
			l.d.Intern(term.NewLiteral(fmt.Sprintf("v%d", base+i))),
		}
		l.g.AddID(enc)
		batch = append(batch, enc)
	}
	if err := l.eng.Append(l.d, batch); err != nil {
		t.Fatal(err)
	}
}

// memSink owns the replicated graph the way a replica DB does: it
// starts from the graph Open returned, adds every committed batch to
// it and counts what was new.
type memSink struct {
	mu      sync.Mutex
	g       *graph.Graph
	resets  int
	commits int
	fresh   int
}

func (s *memSink) Reset(d *dict.Dict, g *graph.Graph) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.g = g
	s.resets++
}

func (s *memSink) Commit(batch []dict.Triple3) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range batch {
		if s.g.AddID(t) {
			s.fresh++
		}
	}
	s.commits++
}

func (s *memSink) snapshot() (resets, commits, fresh int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resets, s.commits, s.fresh
}

// graph returns the sink's current graph.
func (s *memSink) graph() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.g
}

// fastCfg returns a follower config with test-speed polling.
func fastCfg(dir string, src Source) Config {
	return Config{
		Dir:     dir,
		Source:  src,
		NoSync:  true,
		Wait:    50 * time.Millisecond,
		Backoff: 5 * time.Millisecond,
	}
}

// startRun launches f.Run and returns a stop function that cancels it
// and waits for it to return.
func startRun(f *Follower, sink Sink) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx, sink)
	}()
	return func() {
		cancel()
		<-done
	}
}

// waitConverged polls until the follower's durable mirror matches the
// leader's durable log exactly.
func waitConverged(t *testing.T, f *Follower, l *testLeader) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ts := l.eng.TailState()
		st := f.Status()
		if st.Generation == ts.Gen && st.AppliedBytes == ts.WALSize && st.AppliedRecords == ts.WALRecords {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: follower %+v, leader %+v", st, ts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// assertSameGraph checks the follower's state fg holds exactly the
// leader's triples. Both sides replay the same WAL byte stream through
// fresh dictionaries, so IDs agree and the graphs must be identical.
func assertSameGraph(t *testing.T, fg, lg *graph.Graph) {
	t.Helper()
	if fg.Len() != lg.Len() {
		t.Fatalf("follower holds %d triples, leader %d", fg.Len(), lg.Len())
	}
	lg.EachID(func(enc dict.Triple3) bool {
		if !fg.HasID(enc) {
			t.Fatalf("follower missing triple %v", enc)
		}
		return true
	})
}

// assertByteMirror checks the invariant everything else rides on: the
// follower's local WAL file is byte-identical to the leader's. The
// files are compared block by block, so a large log is never held
// twice in memory.
func assertByteMirror(t *testing.T, followerDir, leaderDir string) {
	t.Helper()
	open := func(dir string) *bufio.Reader {
		fh, err := os.Open(filepath.Join(dir, persist.WALFile))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fh.Close() })
		return bufio.NewReaderSize(fh, 1<<20)
	}
	fr, lr := open(followerDir), open(leaderDir)
	fb, lb := make([]byte, 1<<20), make([]byte, 1<<20)
	for off := 0; ; {
		fn, ferr := io.ReadFull(fr, fb)
		ln, lerr := io.ReadFull(lr, lb)
		if !bytes.Equal(fb[:fn], lb[:ln]) {
			t.Fatalf("mirror diverged in the 1 MiB block at offset %d", off)
		}
		if ferr != nil || lerr != nil {
			if (ferr == nil) != (lerr == nil) {
				t.Fatalf("mirror diverged: follower WAL ends %v, leader %v, at offset %d", ferr, lerr, off+fn)
			}
			return
		}
		off += fn
	}
}

// TestFollowerBootstrapAndTail: a fresh follower bootstraps the
// leader's existing log, then applies live appends as they happen, and
// its mirror stays a byte-exact copy throughout.
func TestFollowerBootstrapAndTail(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 10, 0)

	dir := t.TempDir()
	f, g, err := Open(context.Background(), fastCfg(dir, NewLeader(l.eng)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := f.Status().Bootstraps; got != 1 {
		t.Fatalf("Bootstraps = %d after initial sync, want 1", got)
	}
	assertSameGraph(t, g, l.g)

	sink := &memSink{g: g}
	stop := startRun(f, sink)
	defer stop()

	for b := 0; b < 3; b++ {
		l.add(t, 5, 100+10*b)
	}
	waitConverged(t, f, l)
	assertSameGraph(t, sink.graph(), l.g)
	stop()
	assertByteMirror(t, dir, l.dir)

	_, commits, fresh := sink.snapshot()
	if commits == 0 || fresh != 15 {
		t.Fatalf("sink saw %d commits with %d fresh triples, want 15 fresh", commits, fresh)
	}
	st := f.Status()
	if st.LagBytes != 0 || st.LagRecords != 0 {
		t.Fatalf("lag nonzero at quiescence: %+v", st)
	}
}

// TestFollowerSnapshotBootstrap: a leader that has compacted serves its
// state as snapshot + WAL suffix; the follower must reassemble both.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 20, 0)
	if err := l.eng.Compact(l.g); err != nil {
		t.Fatal(err)
	}
	l.add(t, 7, 100)

	f, g, err := Open(context.Background(), fastCfg(t.TempDir(), NewLeader(l.eng)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	assertSameGraph(t, g, l.g)
	st := f.Status()
	ts := l.eng.TailState()
	if st.Generation != ts.Gen || st.AppliedBytes != ts.WALSize {
		t.Fatalf("follower at %+v, leader at %+v", st, ts)
	}
}

// TestFollowerRefusesForeignDir: bootstrapping must never wipe a
// directory that holds a database but no replica marker — that is
// somebody's primary.
func TestFollowerRefusesForeignDir(t *testing.T) {
	dir := t.TempDir()
	eng, d, g, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := d.Intern(term.NewIRI("urn:p"))
	enc := dict.Triple3{d.Intern(term.NewIRI("urn:s")), p, d.Intern(term.NewLiteral("v"))}
	g.AddID(enc)
	if err := eng.Append(d, []dict.Triple3{enc}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	l := newTestLeader(t)
	if _, _, err := Open(context.Background(), fastCfg(dir, NewLeader(l.eng))); err == nil {
		t.Fatal("follower bootstrapped into a foreign database directory")
	}
	// The database must be untouched and reopenable.
	eng2, _, g2, err := persist.Open(dir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatalf("foreign directory damaged: %v", err)
	}
	defer eng2.Close()
	if g2.Len() != 1 {
		t.Fatalf("foreign directory lost data: %d triples", g2.Len())
	}
}

// TestFollowerLocalRestart: a follower with an intact mirror reopens
// from local disk without contacting the leader, then catches up on
// what it missed while down.
func TestFollowerLocalRestart(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 8, 0)

	dir := t.TempDir()
	cfg := fastCfg(dir, NewLeader(l.eng))
	f, _, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitLocal := f.Status()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l.add(t, 8, 50) // written while the follower was down

	f2, g2, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	st := f2.Status()
	if st.Bootstraps != 0 {
		t.Fatalf("local reopen bootstrapped %d times, want 0", st.Bootstraps)
	}
	if st.AppliedBytes != waitLocal.AppliedBytes {
		t.Fatalf("local reopen at %d bytes, want the %d it had", st.AppliedBytes, waitLocal.AppliedBytes)
	}

	sink := &memSink{g: g2}
	stop := startRun(f2, sink)
	defer stop()
	waitConverged(t, f2, l)
	assertSameGraph(t, sink.graph(), l.g)
	stop()
	assertByteMirror(t, dir, l.dir)
}

// TestFollowerGenerationSwitch: the leader compacts mid-tail, voiding
// every offset; the follower must re-bootstrap onto the new generation
// and converge, and the sink must see a Reset.
func TestFollowerGenerationSwitch(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 10, 0)

	f, g, err := Open(context.Background(), fastCfg(t.TempDir(), NewLeader(l.eng)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := &memSink{g: g}
	stop := startRun(f, sink)
	defer stop()
	waitConverged(t, f, l)

	if err := l.eng.Compact(l.g); err != nil {
		t.Fatal(err)
	}
	l.add(t, 5, 200)
	waitConverged(t, f, l)
	assertSameGraph(t, sink.graph(), l.g)

	st := f.Status()
	if st.Bootstraps < 2 {
		t.Fatalf("Bootstraps = %d after a generation switch, want >= 2", st.Bootstraps)
	}
	resets, _, _ := sink.snapshot()
	if resets == 0 {
		t.Fatal("sink never saw the post-switch Reset")
	}
}

// TestFollowerStaleMetaRebootstraps: a follower that was down across a
// leader generation switch reopens its (now stale) mirror locally, and
// the tail loop's first contact re-bootstraps it.
func TestFollowerStaleMetaRebootstraps(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 6, 0)

	dir := t.TempDir()
	cfg := fastCfg(dir, NewLeader(l.eng))
	f, _, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation switch while the follower is down.
	if err := l.eng.Compact(l.g); err != nil {
		t.Fatal(err)
	}
	l.add(t, 4, 100)

	f2, g2, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	sink := &memSink{g: g2}
	stop := startRun(f2, sink)
	defer stop()
	waitConverged(t, f2, l)
	assertSameGraph(t, sink.graph(), l.g)
	if f2.Status().Bootstraps == 0 {
		t.Fatal("stale-generation mirror was never re-bootstrapped")
	}
}

// TestFollowerProvisionalMetaRedone: a crash between the provisional
// marker and the final one leaves generation 0 behind; reopening must
// redo the bootstrap rather than trust whatever files survived.
func TestFollowerProvisionalMetaRedone(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 6, 0)

	dir := t.TempDir()
	cfg := fastCfg(dir, NewLeader(l.eng))
	f, _, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: provisional marker, half-gone files.
	if err := os.WriteFile(filepath.Join(dir, persist.MirrorFile), []byte(`{"generation":"0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, persist.WALFile), 7); err != nil {
		t.Fatal(err)
	}

	f2, g2, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Status().Bootstraps != 1 {
		t.Fatalf("Bootstraps = %d reopening a provisional mirror, want 1", f2.Status().Bootstraps)
	}
	assertSameGraph(t, g2, l.g)
	assertByteMirror(t, dir, l.dir)
}

// TestFollowerLargeRecord: one triple whose literal is 65 MiB is a
// record the leader logs and replays; it must replicate too, and the
// mirror must replay it on restart. Were the mirror's record bound
// below the leader's, the follower would call the frame damaged and
// re-request the same range forever.
func TestFollowerLargeRecord(t *testing.T) {
	// Collect eagerly: the test holds several 65 MiB buffers, and its
	// footprint (times the race detector's shadow) should stay near
	// that live set.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	l := newTestLeader(t)
	l.add(t, 1, 0)
	dir := t.TempDir()
	cfg := fastCfg(dir, NewLeader(l.eng))
	f, g, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := &memSink{g: g}
	stop := startRun(f, sink)
	defer stop()

	// Logged while the follower tails, so it arrives through tail
	// chunks rather than the bootstrap copy.
	big := term.NewLiteral(strings.Repeat("x", 65<<20))
	enc := dict.Triple3{l.d.Intern(term.NewIRI("urn:big")), l.d.Intern(term.NewIRI("urn:p")), l.d.Intern(big)}
	l.g.AddID(enc)
	if err := l.eng.Append(l.d, []dict.Triple3{enc}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, f, l)
	stop()
	assertSameGraph(t, sink.graph(), l.g)
	assertByteMirror(t, dir, l.dir)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restarted, the mirror recovers locally: WAL replay accepts the
	// record the mirror's append accepted.
	f2, fg, err := Open(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if n := f2.Status().Bootstraps; n != 0 {
		t.Fatalf("restart bootstrapped %d times, want a local recovery", n)
	}
	if id, ok := fg.Dict().Lookup(big); !ok || !fg.HasID(dict.Triple3{enc[0], enc[1], id}) {
		t.Fatal("restarted follower lacks the 65 MiB literal")
	}
}

// TestLeaderTailValidation: offsets beyond the durable size and foreign
// generations answer ErrWrongGeneration; a satisfied long-poll returns
// promptly with the new bytes.
func TestLeaderTailValidation(t *testing.T) {
	l := newTestLeader(t)
	l.add(t, 3, 0)
	src := NewLeader(l.eng)
	ctx := context.Background()
	ts := l.eng.TailState()

	if _, err := src.Tail(ctx, ts.Gen+1, 0, 1<<20, 0); err == nil {
		t.Fatal("foreign generation served")
	}
	if _, err := src.Tail(ctx, ts.Gen, ts.WALSize+1, 1<<20, 0); err == nil {
		t.Fatal("offset beyond the durable log served")
	}

	// A long-poll at the tip is satisfied by a concurrent append.
	done := make(chan Chunk, 1)
	go func() {
		c, err := src.Tail(ctx, ts.Gen, ts.WALSize, 1<<20, 5*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- c
	}()
	time.Sleep(20 * time.Millisecond)
	l.add(t, 1, 99)
	select {
	case c := <-done:
		if len(c.Data) == 0 {
			t.Fatal("satisfied long-poll returned a heartbeat")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke for the append")
	}

	// An expired long-poll is a heartbeat, not an error.
	c, err := src.Tail(ctx, l.eng.TailState().Gen, l.eng.TailState().WALSize, 1<<20, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Data) != 0 {
		t.Fatalf("idle long-poll returned %d bytes", len(c.Data))
	}
}
