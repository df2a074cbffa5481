package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"semwebdb/semweb"
)

// options selects and sizes one workload run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	triples   int // |D| of the base
	setups    int // set-up repetitions behind setup_s's median
	snapEvery int // write_read: cycles between client 0's checkpoints
	warm      time.Duration
}

func defaultOptions(quick bool) options {
	if quick {
		return options{triples: quickTriples, setups: 1, snapEvery: 20, warm: 100 * time.Millisecond, seconds: 1}
	}
	return options{triples: dsTriples, setups: 3, snapEvery: 150, warm: time.Second, seconds: runSeconds}
}

// run is the state one workload run threads through its phases.
type run struct {
	*env
	o     options
	ds    *dataset
	rec   *recorder // nil unless traced
	heap0 uint64    // live heap before any service existed
	res   *result
	// snapBytesPerTriple is the latest checkpoint's size over the
	// triples it held.
	snapBytesPerTriple float64
}

// runWorkload generates the inputs from the seed, sets the service up,
// drives the workload and returns its metrics: the end-to-end ones, or
// with o.traced the per-layer ones.
func runWorkload(e *env, o options) (*result, error) {
	ds, err := newDataset(o.seed, o.triples)
	if err != nil {
		return nil, err
	}
	r := &run{env: e, o: o, ds: ds, res: &result{Metrics: map[string]value{}}}
	if o.traced {
		r.rec = newRecorder()
	}
	r.heap0 = liveHeap()
	switch o.workload {
	case "point_read", "join_stream", "write_read":
		err = r.clientWorkload()
	case "bulk_recover":
		err = r.bulkRecover()
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if e.ctx.Err() != nil {
		// What the interrupted run had measured goes back with the error.
		return r.res, fmt.Errorf("run interrupted: %w", context.Cause(e.ctx))
	}
	if err != nil {
		return nil, err
	}
	return r.res, nil
}

// buildBase is the set-up every workload shares and setup_s times: a
// fresh database directory, a service on it, the base loaded in chunks
// over HTTP, one checkpoint, and a first query that makes the engine
// prepare cl(D).
func (r *run) buildBase() (*service, string, time.Duration, error) {
	start := time.Now()
	root, err := r.newRoot()
	if err != nil {
		return nil, "", 0, err
	}
	svc, err := r.start(root, r.rec)
	if err != nil {
		return nil, "", 0, err
	}
	c := newClient(svc.url(), "setup", nil)
	defer c.close()
	if err := loadChunks(r.ctx, c, r.ds.chunks, nil); err != nil {
		return nil, "", 0, err
	}
	st, _, err := c.snapshot(r.ctx)
	if err != nil {
		return nil, "", 0, err
	}
	if st.Triples != len(r.ds.base) {
		return nil, "", 0, fmt.Errorf("setup: database holds %d triples, dataset has %d", st.Triples, len(r.ds.base))
	}
	r.snapBytesPerTriple = float64(st.SnapshotBytes) / float64(st.Triples)
	warm := r.ds.model.pointOp(rand.New(rand.NewSource(r.o.seed)))
	if _, err := c.expect(r.ctx, r.ds.model, warm, true, false); err != nil {
		return nil, "", 0, fmt.Errorf("setup: warm-up query: %w", err)
	}
	return svc, root, time.Since(start), nil
}

// loadChunks posts each body and checks that every triple was new.
func loadChunks(ctx context.Context, c *client, chunks []string, lat *durations) error {
	for _, body := range chunks {
		added, d, err := c.load(ctx, body)
		if err != nil {
			return err
		}
		if want := strings.Count(body, "\n"); added != want {
			return fmt.Errorf("load added %d of %d triples", added, want)
		}
		if lat != nil {
			*lat = append(*lat, d)
		}
	}
	return nil
}

// setup runs buildBase o.setups times, keeps the last service and
// reports the median duration.
func (r *run) setup() (*service, string, error) {
	var secs []float64
	for i := 0; ; i++ {
		svc, root, d, err := r.buildBase()
		if err != nil {
			return nil, "", err
		}
		secs = append(secs, d.Seconds())
		if i == r.o.setups-1 {
			if !r.o.traced {
				r.res.set(endToEnd, "setup_s", median(secs), len(secs))
			}
			return svc, root, nil
		}
		if err := r.stop(svc); err != nil {
			return nil, "", err
		}
		if err := r.remove(root); err != nil {
			return nil, "", err
		}
	}
}

// phase runs every looper to its end concurrently and merges what they
// saw, bracketed by the process counters.
func phase(ctx context.Context, loopers []looper, u until) (*tally, *window) {
	tallies := make([]tally, len(loopers))
	w := openWindow()
	var wg sync.WaitGroup
	for i, l := range loopers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.loop(ctx, u, &tallies[i])
		}()
	}
	wg.Wait()
	w.close()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total, w
}

func deadline(d time.Duration) until { return until{deadline: time.Now().Add(d)} }

// loopers builds the workload's clients.
func (r *run) loopers(svc *service, n int) ([]looper, []*client) {
	m := r.ds.model
	var shapes []queryOp
	if r.o.workload == "join_stream" {
		shapes = m.streamOps()
	}
	var ls []looper
	var cs []*client
	for i := 0; i < n; i++ {
		c := newClient(svc.url(), fmt.Sprintf("c%d", i), r.rec)
		cs = append(cs, c)
		rng := rand.New(rand.NewSource(r.o.seed*1000 + int64(i) + 1))
		switch r.o.workload {
		case "point_read":
			ls = append(ls, &readLooper{c: c, m: m, next: func() queryOp { return m.pointOp(rng) }, keep: r.o.traced})
		case "join_stream":
			k := i // stagger the rotation so clients are not in lock-step
			ls = append(ls, &readLooper{c: c, m: m, next: func() queryOp { k++; return shapes[k%len(shapes)] }, keep: r.o.traced})
		case "write_read":
			l := &writeLooper{c: c, m: m, rng: rng, id: i, keep: r.o.traced}
			if i == 0 {
				l.snapEvery = r.o.snapEvery
			}
			ls = append(ls, l)
		}
	}
	return ls, cs
}

// clientWorkload runs point_read, join_stream or write_read: set-up,
// warm-up, then the timed closed loop (or the traced passes).
func (r *run) clientWorkload() error {
	svc, root, err := r.setup()
	if err != nil {
		return err
	}
	if r.o.traced {
		return r.tracedClientWorkload(svc, root)
	}
	ls, cs := r.loopers(svc, r.clients)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	phase(r.ctx, ls, deadline(r.o.warm))
	var slices []slice
	for k := 0; k < windowSlices && r.ctx.Err() == nil; k++ {
		t, w := phase(r.ctx, ls, deadline(time.Duration(r.o.seconds/windowSlices*float64(time.Second))))
		slices = append(slices, slice{t, w})
	}
	r.timings(slices) // first, so an interrupted run still reports them

	st, _, err := cs[0].stats(r.ctx)
	if err != nil {
		return err
	}
	if r.o.workload == "write_read" {
		// Off the delta path the workload measures something else.
		if fb := fallbacks(st); fb != 0 {
			return fmt.Errorf("write_read left the delta path: %d prepared-cache fallbacks", fb)
		}
		// More than one full preparation means a query raced a commit:
		// its snapshot was no longer current, so the engine prepared
		// cl(D) from scratch for it (README.md, "write_read").
		fmt.Fprintf(os.Stderr, "semwebbench: write_read: prepared_full=%d prepared_delta=%d\n", st.PreparedFull, st.PreparedDelta)
	}
	r.footprint(st)
	return r.stop(svc)
}

func fallbacks(st semweb.Stats) uint64 {
	return st.PreparedFallbackNonGroundBase + st.PreparedFallbackNonGroundBatch +
		st.PreparedFallbackCompact + st.PreparedFallbackError + st.PreparedFallbackDisabled
}

// windowSlices is how many equal slices the timed window is measured
// in. Each timing metric is computed per slice and reported as the
// median over slices, so interference that hits a part of the window (a
// neighbour on the box, a collection of the harness's own garbage) does
// not move the run's result.
const windowSlices = 5

// slice is one slice of the timed window; on bulk_recover, one cycle.
type slice struct {
	t *tally
	w *window
}

// timings fills in the end-to-end metrics that come from the timed
// window's tallies and process counters, and the run's totals.
func (r *run) timings(slices []slice) {
	res := r.res
	total := &tally{}
	for _, s := range slices {
		total.merge(s.t)
	}
	res.Ops, res.Failed, res.firstFailure = total.ops, total.failed, total.firstErr
	over := func(f func(slice) float64) float64 {
		var xs []float64
		for _, s := range slices {
			if len(s.t.op) > 0 { // a slice in which no operation completed says nothing
				xs = append(xs, f(s))
			}
		}
		return median(xs)
	}
	res.set(endToEnd, "ops_per_s", over(func(s slice) float64 { return float64(s.t.ops) / s.w.wall.Seconds() }), total.ops)
	res.set(endToEnd, "op_p50_ms", over(func(s slice) float64 { return ms(s.t.op.quantile(0.50)) }), len(total.op))
	res.set(endToEnd, "op_p95_ms", over(func(s slice) float64 { return ms(s.t.op.quantile(0.95)) }), len(total.op))
	res.set(endToEnd, "query_p50_ms", over(func(s slice) float64 { return ms(s.t.query.quantile(0.50)) }), len(total.query))
	res.set(endToEnd, "cpu_ms_per_op", over(func(s slice) float64 { return ms(s.w.cpuUse) / float64(max(s.t.ops, 1)) }), total.ops)
}

// footprint fills in the memory and disk metrics. The service is still
// open, so live_heap_mb counts what it holds; st is its final /stats.
func (r *run) footprint(st semweb.Stats) {
	r.res.set(endToEnd, "live_heap_mb", (float64(liveHeap())-float64(r.heap0))/(1<<20), 0)
	r.res.set(endToEnd, "disk_bytes_per_triple", float64(st.SnapshotBytes+st.WALBytes)/float64(max(st.Triples, 1)), 0)
}

// ---- bulk_recover ----

// bulkCycle is the operator path once through: fresh directory, the
// base in chunks, checkpoint, a WAL tail, shutdown, a new server on the
// same root, /stats (which opens the database: snapshot decode plus
// WAL replay) and the first query (which prepares cl(D) from scratch).
type bulkCycle struct {
	baseLoad  time.Duration // the chunked base load alone
	open      time.Duration
	coldQuery time.Duration
	stats     semweb.Stats
}

// cycle runs one bulkCycle. keep leaves the restarted service running
// and returns it (the last cycle, so the heap can be measured with the
// database open).
func (r *run) cycle(k int, t *tally, cold queryOp, keep bool, beforeRestart func(*service) error) (bulkCycle, *service, error) {
	var bc bulkCycle
	root, err := r.newRoot()
	if err != nil {
		return bc, nil, err
	}
	svc, err := r.start(root, r.rec)
	if err != nil {
		return bc, nil, err
	}
	c := newClient(svc.url(), fmt.Sprintf("b%d", k), r.rec)
	defer c.close()
	start := time.Now()
	err = loadChunks(r.ctx, c, r.ds.chunks, &t.load)
	bc.baseLoad = time.Since(start)
	if err == nil {
		_, _, err = c.snapshot(r.ctx)
	}
	if err == nil {
		err = loadChunks(r.ctx, c, r.ds.tail, &t.load)
	}
	if err != nil {
		return bc, nil, err
	}
	t.ops += len(r.ds.chunks) + len(r.ds.tail)
	if beforeRestart != nil {
		if err := beforeRestart(svc); err != nil {
			return bc, nil, err
		}
	}
	if err := r.stop(svc); err != nil {
		return bc, nil, err
	}

	start = time.Now()
	svc, err = r.start(root, r.rec)
	if err != nil {
		return bc, nil, err
	}
	c2 := newClient(svc.url(), fmt.Sprintf("r%d", k), r.rec)
	defer c2.close()
	bc.stats, _, err = c2.stats(r.ctx)
	bc.open = time.Since(start)
	if err != nil {
		return bc, nil, err
	}
	if want := len(r.ds.base) + len(r.ds.tailTs); bc.stats.Triples != want {
		return bc, nil, fmt.Errorf("recovered %d triples, loaded %d", bc.stats.Triples, want)
	}
	a, err := c2.expect(r.ctx, r.ds.model, cold, true, false)
	if err != nil {
		return bc, nil, fmt.Errorf("first query after restart: %w", err)
	}
	bc.coldQuery = a.total
	t.query = append(t.query, a.total)
	t.rows += a.rows
	t.matchings += a.trailer.Matchings
	if keep {
		return bc, svc, nil
	}
	if err := r.stop(svc); err != nil {
		return bc, nil, err
	}
	return bc, nil, r.remove(root)
}

func (r *run) bulkRecover() error {
	// Set-up is one full base build like everyone's; it doubles as the
	// warm-up cycle. The tail joins the model only afterwards, so the
	// set-up's own check runs against the base alone.
	svc, root, err := r.setup()
	if err != nil {
		return err
	}
	if err := r.stop(svc); err != nil {
		return err
	}
	if err := r.remove(root); err != nil {
		return err
	}
	for _, t := range r.ds.tailTs {
		r.ds.model.add(t)
	}
	rng := rand.New(rand.NewSource(r.o.seed + 1))
	if r.o.traced {
		return r.tracedBulkRecover(rng)
	}

	// Each cycle is one slice of the window (see windowSlices).
	var slices []slice
	var last bulkCycle
	var open *service
	start := time.Now()
	for k := 0; open == nil; k++ {
		// The cycle expected to cross the window's end is the last; it
		// keeps its service open for the heap reading.
		elapsed := time.Since(start).Seconds()
		final := r.ctx.Err() != nil || (k > 0 && elapsed+elapsed/float64(k) >= r.o.seconds)
		t, w := &tally{}, openWindow()
		bc, svc, err := r.cycle(k, t, r.ds.model.pointOp(rng), final, nil)
		if err != nil {
			return err
		}
		w.close()
		t.op = t.load
		slices = append(slices, slice{t, w})
		last, open = bc, svc
	}
	r.timings(slices)
	r.footprint(last.stats)
	return r.stop(open)
}
