package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	dir := t.TempDir()
	return &env{
		ctx:     context.Background(),
		tmp:     filepath.Join(dir, "tmp"),
		out:     filepath.Join(dir, "out"),
		clean:   &cleanup{},
		clients: 2,
	}
}

// TestQuick is the smoke that keeps the harness from rotting: all four
// workloads at the -quick size, timed and traced, every metric of the
// spec present with its unit, nothing failed.
func TestQuick(t *testing.T) {
	start := time.Now()
	for _, ws := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			e := testEnv(t)
			o := defaultOptions(true)
			o.workload, o.seed, o.traced = ws.Name, 7, traced
			res, err := runWorkload(e, o)
			if cerr := e.clean.run(); cerr != nil {
				t.Errorf("%s: teardown: %v", ws.Name, cerr)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", ws.Name, traced, err)
			}
			if res.Ops == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: ops=%d failed=%d (%v)", ws.Name, traced, res.Ops, res.Failed, res.firstFailure)
			}
			list := endToEnd
			if traced {
				list = perLayer
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s traced=%v: %d metrics, spec lists %d", ws.Name, traced, len(res.Metrics), len(list))
			}
			for _, m := range list {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", ws.Name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, spec says %q", ws.Name, m.Name, v.Unit, m.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", ws.Name, m.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.out, "trace-"+ws.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", ws.Name, err)
				}
				if ws.Name == "write_read" {
					if full := res.Metrics["semweb.prepared_full"].Value; full != 1 {
						t.Errorf("write_read traced: prepared_full = %v, want 1 (delta path)", full)
					}
				}
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("quick smoke took %v, budget is 20s", d)
	}
}

// serverGoroutines lists goroutines that belong to a service, a client
// connection or a replication follower.
func serverGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var left []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, mark := range []string{"net/http.(*Server).Serve", "net/http.(*conn).serve", "net/http.(*persistConn)", "internal/repl.", "semweb.(*Rows).run"} {
			if strings.Contains(g, mark) {
				left = append(left, g)
				break
			}
		}
	}
	return left
}

func assertNothingLeft(t *testing.T, e *env) {
	t.Helper()
	for _, addr := range e.started {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s is still accepting", addr)
		}
	}
	// Connection goroutines unwind asynchronously once their sockets
	// close; give them a moment before calling it a leak.
	var left []string
	for i := 0; i < 100; i++ {
		if left = serverGoroutines(); len(left) == 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, g := range left {
		t.Errorf("goroutine outlived the run:\n%s", g)
	}
	if entries, err := os.ReadDir(e.tmp); err == nil && len(entries) > 0 {
		t.Errorf("%d entries left under %s", len(entries), e.tmp)
	}
}

// TestNoLeak runs the workload with the most moving parts (traced
// bulk_recover: several services, restarts, a replication follower) and
// a two-client one, and asserts that listeners, goroutines and
// directories are gone afterwards.
func TestNoLeak(t *testing.T) {
	for _, name := range []string{"bulk_recover", "write_read"} {
		e := testEnv(t)
		o := defaultOptions(true)
		o.workload, o.seed, o.traced = name, 3, name == "bulk_recover"
		if _, err := runWorkload(e, o); err != nil {
			t.Fatal(err)
		}
		if err := e.clean.run(); err != nil {
			t.Fatal(err)
		}
		if len(e.started) == 0 {
			t.Fatal("no service was started")
		}
		assertNothingLeft(t, e)
	}
}

// TestWatchdogTearsDown cuts a run short the way -max-wall (or a
// signal) does and checks the same invariants, plus the non-nil error.
func TestWatchdogTearsDown(t *testing.T) {
	e := testEnv(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	e.ctx = ctx
	o := defaultOptions(true)
	o.workload, o.seed, o.seconds = "write_read", 5, 30
	timer := time.AfterFunc(500*time.Millisecond, func() { cancel(errWatchdog) })
	defer timer.Stop()
	start := time.Now()
	res, err := runWorkload(e, o)
	if err == nil {
		t.Fatal("an interrupted run must report an error")
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("run took %v to unwind", time.Since(start))
	}
	if res == nil || res.Ops == 0 {
		t.Errorf("no partial result came back: %+v", res)
	}
	if err := e.clean.run(); err != nil {
		t.Fatal(err)
	}
	assertNothingLeft(t, e)
}

// TestSpecMatchesFile keeps BENCHMARK.json and the tables in spec.go
// the same thing.
func TestSpecMatchesFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeSpec(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("BENCHMARK.json is not `semwebbench -spec`; regenerate it")
	}
	for _, w := range workloadSpecs {
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit is 200", w.Name, len(w.Why))
		}
	}
}

// TestDatasetShape pins what the issue asks of the base: size, closure
// blow-up within 3-5x, determinism per seed.
func TestDatasetShape(t *testing.T) {
	a, err := newDataset(11, quickTriples)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newDataset(11, quickTriples)
	if len(a.base) != quickTriples {
		t.Errorf("|D| = %d, want %d", len(a.base), quickTriples)
	}
	if strings.Join(a.chunks, "") != strings.Join(b.chunks, "") || strings.Join(a.tail, "") != strings.Join(b.tail, "") {
		t.Error("the same seed gave different inputs")
	}
	c, _ := newDataset(12, quickTriples)
	if strings.Join(a.chunks, "") == strings.Join(c.chunks, "") {
		t.Error("different seeds gave the same inputs")
	}
	// |cl(D)| from the model: typings, inherited links, and the schema's
	// own closure is small enough to ignore at this precision.
	m := a.model
	cl := 0
	for i := range m.inds.list {
		cl += len(m.types(i))
		for _, l := range at(m.out, i) {
			cl += len(m.propUp[l.prop])
		}
	}
	if r := float64(cl) / float64(len(a.base)); r < 3 || r > 5 {
		t.Errorf("|cl(D)|/|D| is about %.2f, want 3 to 5", r)
	}
}

func TestCompare(t *testing.T) {
	mk := func(p50 float64) *suiteFile {
		f := &suiteFile{Workloads: map[string]*suiteEntry{"point_read": {Ops: 1000, EndToEnd: map[string]value{
			"op_p50_ms": {Value: p50, Unit: "ms", Samples: 1000},
			"op_p95_ms": {Value: 1, Unit: "ms", Samples: 50},
		}}}}
		return f
	}
	spec, _ := specOf(endToEnd, "op_p50_ms")
	var out bytes.Buffer
	if code := compareSuites(mk(1.0), mk(1+spec.Bound/2), &out); code != 0 {
		t.Errorf("half the bound apart: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a p95 over 50 samples must be unresolved:\n%s", out.String())
	}
	out.Reset()
	if code := compareSuites(mk(1.0), mk(1+2*spec.Bound), &out); code != 1 {
		t.Errorf("twice the bound apart: exit %d\n%s", code, out.String())
	}
}

func TestResultLine(t *testing.T) {
	var out bytes.Buffer
	res := &result{Ops: 10, Metrics: map[string]value{"setup_s": {Value: 1.5, Unit: "s", Samples: 3}}}
	printResult(&out, res, true)
	var line struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(out.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 10 || len(line.Metrics["setup_s"]) != 2 {
		t.Errorf("unexpected result line: %s", out.String())
	}
}
