package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"semwebdb/internal/obs"
	"semwebdb/semweb"
)

// The traced run: same workload and seed as the timed run, but one
// client and fixed operation counts, so the counts it reports repeat
// exactly. It makes an untraced pass and a traced pass of the same
// length (their throughput ratio is trace.overhead_ratio), diffs
// /metrics and /stats around the traced one, calls the facade without
// HTTP, and finally replays a sample of the operations layer by layer.

// tracedOps is the length of each pass, in operations (bulk_recover:
// cycles), and how many of them the layer replay re-executes.
func (r *run) tracedOps() (pass, replay int) {
	quick := r.o.triples < dsTriples
	switch r.o.workload {
	case "point_read":
		if quick {
			return 500, 200
		}
		return 4000, 1000
	case "join_stream":
		if quick {
			return 9, 6
		}
		return 45, 15
	case "write_read":
		if quick {
			return 40, 20
		}
		return 150, 60
	default:
		return 2, 0
	}
}

// around is the server-side state read before and after the traced pass.
type around struct {
	prom  map[string]float64
	stats semweb.Stats
}

func readAround(ctx context.Context, c *client) (around, error) {
	var a around
	text, err := c.metricsText(ctx)
	if err != nil {
		return a, err
	}
	a.prom = promSamples(text)
	a.stats, _, err = c.stats(ctx)
	return a, err
}

func (r *run) tracedClientWorkload(svc *service, root string) error {
	ls, cs := r.loopers(svc, 1)
	c := cs[0]
	defer c.close()
	pass, nReplay := r.tracedOps()

	phase(r.ctx, ls, deadline(r.o.warm))
	tu, wu := phase(r.ctx, ls, until{count: pass})
	before, err := readAround(r.ctx, c)
	if err != nil {
		return err
	}
	reads, writes := ls[0].sent()
	skip := len(reads) + len(writes)
	r.rec.on.Store(true)
	tt, wt := phase(r.ctx, ls, until{count: pass})
	r.rec.on.Store(false)
	after, err := readAround(r.ctx, c)
	if err != nil {
		return err
	}
	if r.ctx.Err() != nil {
		return nil
	}
	// The replay re-executes the first operations of the traced pass.
	if reads, writes = ls[0].sent(); reads != nil {
		reads = reads[skip:min(skip+nReplay, len(reads))]
	} else {
		writes = writes[skip:min(skip+nReplay, len(writes))]
	}

	db, err := svc.srv.DB(dbName)
	if err != nil {
		return err
	}
	addUs, evalUs, err := r.facade(db, ls[0])
	if err != nil {
		return err
	}
	if err := r.stop(svc); err != nil {
		return err
	}
	if err := r.remove(root); err != nil {
		return err
	}

	r.res.Ops, r.res.Failed, r.res.firstFailure = tt.ops, tt.failed, tt.firstErr
	r.clientMetrics(tt, wt)
	r.serverMetrics(before, after)
	r.res.set(perLayer, "trace.overhead_ratio", (float64(tt.ops)/wt.wall.Seconds())/(float64(tu.ops)/wu.wall.Seconds()), 0)
	r.res.set(perLayer, "semweb.add_us", addUs, 0)
	r.res.set(perLayer, "semweb.eval_us", evalUs, 0)
	if r.o.workload == "write_read" {
		r.res.set(perLayer, "client.ryw_p99_ms", ms(tt.op.quantile(0.99)), len(tt.op))
	}
	return r.replayAndFinish(replayInput{ds: r.ds, reads: reads, writes: writes}, tt.ops)
}

// facade calls semweb.DB directly, without HTTP, on the database the
// service was serving: the difference to the handler spans is serve's
// share. It returns median microseconds for a write and for a read.
func (r *run) facade(db *semweb.DB, l looper) (addUs, evalUs float64, err error) {
	var adds, evals durations
	read := func(q queryOp) error {
		t0 := time.Now()
		pq, err := semweb.ParseQuery(q.text)
		if err != nil {
			return err
		}
		if q.limit > 0 {
			pq.LimitMatchings(q.limit)
		}
		rows, err := db.Stream(r.ctx, pq)
		if err != nil {
			return err
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Close(); err != nil {
			return err
		}
		evals = append(evals, time.Since(t0))
		if n != q.want {
			return fmt.Errorf("facade: %s streamed %d rows, model expects %d", q.shape, n, q.want)
		}
		return nil
	}
	for i := 0; i < 30; i++ {
		body, q := l.draw()
		if body != "" {
			t0 := time.Now()
			if err := db.LoadNTriples(strings.NewReader(body)); err != nil {
				return 0, 0, err
			}
			adds = append(adds, time.Since(t0))
		}
		if err := read(q); err != nil {
			return 0, 0, err
		}
	}
	return us(adds.quantile(0.5)), us(evals.quantile(0.5)), nil
}

// clientMetrics reports what the traced pass's client saw.
func (r *run) clientMetrics(t *tally, w *window) {
	res := r.res
	res.set(perLayer, "client.query_p99_ms", ms(t.query.quantile(0.99)), len(t.query))
	res.set(perLayer, "client.load_p50_ms", ms(t.load.quantile(0.50)), len(t.load))
	res.set(perLayer, "client.load_p99_ms", ms(t.load.quantile(0.99)), len(t.load))
	res.set(perLayer, "client.ttfr_p50_ms", ms(t.ttfr.quantile(0.50)), len(t.ttfr))
	res.set(perLayer, "client.rows_per_s", float64(t.rows)/w.wall.Seconds(), 0)
	res.set(perLayer, "client.samples", float64(len(t.op)), 0)
	res.set(perLayer, "query.rows", float64(t.rows), 0)
	res.set(perLayer, "query.matchings", float64(t.matchings), 0)
	res.set(perLayer, "runtime.gc_pause_ms", float64(w.gcNs)/1e6, 0)
	res.set(perLayer, "runtime.allocs_per_op", float64(w.allocs)/float64(max(t.ops, 1)), 0)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverMetrics reports the counts the service kept about itself over
// the traced pass: /metrics growth and the final /stats.
func (r *run) serverMetrics(before, after around) {
	res := r.res
	d := func(family, match string) float64 { return promDelta(before.prom, after.prom, family, match) }
	res.set(perLayer, "serve.http_5xx", d("semwebd_http_requests_total", `code="5`), 0)
	res.set(perLayer, "dict.interns", d("semweb_dict_interns_total", ""), 0)
	res.set(perLayer, "dict.terms", float64(after.stats.DictTerms), 0)
	res.set(perLayer, "graph.triples", float64(after.stats.Triples), 0)
	res.set(perLayer, "closure.rule_firings", d("semweb_closure_rule_firings_total", ""), 0)
	res.set(perLayer, "closure.useful_ratio", ratio(d("semweb_closure_triples_derived_total", ""), d("semweb_closure_rule_firings_total", "")), 0)
	fsyncs := d("semweb_wal_fsync_seconds_count", "")
	res.set(perLayer, "persist.fsync_us", 1e6*ratio(d("semweb_wal_fsync_seconds_sum", ""), fsyncs), int(fsyncs))
	res.set(perLayer, "persist.fsyncs_per_commit", ratio(fsyncs, d("semweb_wal_appends_total", "")), 0)
	res.set(perLayer, "persist.wal_bytes_per_triple", ratio(d("semweb_wal_append_bytes_total", ""), float64(after.stats.Triples-before.stats.Triples)), 0)
	res.set(perLayer, "semweb.prepared_full", float64(after.stats.PreparedFull), 0)
	res.set(perLayer, "semweb.prepared_delta", float64(after.stats.PreparedDelta), 0)
	res.set(perLayer, "semweb.prepared_fallbacks", float64(fallbacks(after.stats)), 0)
}

// replayAndFinish runs the layer replay, turns the recorded spans into
// the remaining per-layer metrics, writes the trace file and fills in
// zeros for whatever this workload does not exercise. ops is the
// traced pass's operation count, the base of trace.coverage.
func (r *run) replayAndFinish(in replayInput, ops int) error {
	dir, err := os.MkdirTemp(r.tmp, "replay-")
	if err != nil {
		return err
	}
	r.clean.push(dir, func() error { return os.RemoveAll(dir) })
	in.dir = dir
	r.rec.on.Store(true)
	out, err := replayLayers(r.ctx, r.rec, in)
	r.rec.on.Store(false)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	if err := r.remove(dir); err != nil {
		return err
	}

	spans := r.rec.snapshot()
	res := r.res
	// mine: the spans of the workload's own operations in the replay,
	// which for bulk_recover include the base build itself.
	var mine, bulk []span
	for _, s := range spans {
		isBulk := strings.HasPrefix(s.Op, "bulk")
		if isBulk {
			bulk = append(bulk, s)
		}
		if strings.HasPrefix(s.Op, "op-") || (isBulk && r.o.workload == "bulk_recover") {
			mine = append(mine, s)
		}
	}
	all, own, base := byName(spans), byName(mine), byName(bulk)
	medUs := func(d durations) float64 { return us(d.quantile(0.5)) }

	// The service's handler spans against the client's.
	res.set(perLayer, "serve.handler_query_us", medUs(all["serve.handler_query"]), len(all["serve.handler_query"]))
	res.set(perLayer, "serve.handler_load_us", medUs(all["serve.handler_load"]), len(all["serve.handler_load"]))
	var overhead durations
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "serve.handler_") {
			overhead = append(overhead, p.dur()-s.dur())
		}
	}
	res.set(perLayer, "serve.overhead_us", medUs(overhead), len(overhead))

	// Base build, the same on every workload.
	res.set(perLayer, "ntriples.parse_ns_per_triple", float64(base["ntriples.parse"].sum().Nanoseconds())/float64(out.triples), out.triples)
	res.set(perLayer, "graph.add_ns_per_triple", float64(base["graph.add"].sum().Nanoseconds())/float64(out.triples), out.triples)
	res.set(perLayer, "dict.intern_ns_per_term", out.internNs, 0)
	res.set(perLayer, "persist.snapshot_write_ms", ms(base["persist.snapshot"].sum()), 1)
	res.set(perLayer, "persist.open_ms", ms(base["persist.open"].sum()), 1)
	res.set(perLayer, "persist.replay_records", float64(out.replayRecords), 0)
	res.set(perLayer, "closure.full_ms", ms(base["closure.full"].sum()), 1)
	res.set(perLayer, "match.index_build_ms", ms(base["match.index_build"].sum()), 1)
	res.set(perLayer, "closure.maintainer_seed_ms", ms(base["closure.maintainer_seed"].sum()), 1)

	// The workload's own operations.
	for _, name := range []string{"graph.clone", "persist.append", "closure.delta_apply", "match.index_extend", "query.parse", "dict.scratch_intern"} {
		res.set(perLayer, name+"_us", medUs(own[name]), len(own[name]))
	}
	var solves durations
	for name, d := range own {
		if shape, ok := strings.CutPrefix(name, "match.solve."); ok {
			solves = append(solves, d...)
			if _, ok := specOf(perLayer, "match.shape_"+shape+"_ms"); ok {
				res.set(perLayer, "match.shape_"+shape+"_ms", ms(d.quantile(0.5)), len(d))
			}
		}
	}
	res.set(perLayer, "match.solve_us", medUs(solves), len(solves))
	res.set(perLayer, "serve.encode_us_per_row", ratio(us(own["serve.encode"].sum()), float64(out.rows)), out.rows)
	res.set(perLayer, "query.allocs_per_op", out.allocsPerRead, out.allocReads)
	if n := len(out.derived); n > 0 {
		total := 0
		for _, k := range out.derived {
			total += k
		}
		res.set(perLayer, "closure.derived_per_batch", float64(total)/float64(n), n)
	}
	// Stream self time: what StreamPreparedIndexCtx spends outside the
	// row encodes (its child spans) and outside the solver, whose cost
	// the sibling solve spans estimate.
	self := selfTimes(spans)
	var streamSelf durations
	for _, s := range mine {
		if s.Name == "query.stream" {
			streamSelf = append(streamSelf, self[s.ID])
		}
	}
	res.set(perLayer, "query.stream_self_us", max(0, medUs(streamSelf)-medUs(solves)), len(streamSelf))

	// Coverage: replayed layer time per operation over the time the
	// traced pass's handlers spent per operation on the same requests.
	handlers, replayed, root := []string{"serve.handler_query"}, []string{"replay.read"}, "replay.read"
	switch r.o.workload {
	case "write_read":
		handlers = append(handlers, "serve.handler_load")
		replayed, root = append(replayed, "replay.write", "replay.extend"), "replay.write"
	case "bulk_recover":
		handlers, replayed, root = []string{"serve.handler_load"}, []string{"replay.write"}, "replay.write"
	}
	var handled, covered time.Duration
	for _, name := range handlers {
		handled += all[name].sum()
	}
	for _, name := range replayed {
		covered += own[name].sum()
	}
	if roots := len(own[root]); roots > 0 && ops > 0 && handled > 0 {
		res.set(perLayer, "trace.coverage", (float64(covered)/float64(roots))/(float64(handled)/float64(ops)), roots)
	}
	res.set(perLayer, "persist.snapshot_bytes_per_triple", r.snapBytesPerTriple, 0)

	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.set(perLayer, m.Name, 0, 0)
		}
	}
	return writeTrace(r.out, r.o.workload, spans)
}

// ---- bulk_recover ----

func (r *run) tracedBulkRecover(rng *rand.Rand) error {
	cycles, _ := r.tracedOps()
	tu := &tally{}
	wu := openWindow()
	if _, _, err := r.cycle(0, tu, r.ds.model.pointOp(rng), false, nil); err != nil {
		return err
	}
	wu.close()

	// No service is up between cycles, so "before" is read off the
	// process-wide registry that every service's /metrics renders.
	var text strings.Builder
	if err := obs.Default.WritePrometheus(&text); err != nil {
		return err
	}
	before := around{prom: promSamples(text.String())}

	var rep replStats
	var svc *service
	var bcs []bulkCycle
	tt := &tally{}
	r.rec.on.Store(true)
	wt := openWindow()
	for k := 1; k <= cycles; k++ {
		var hook func(*service) error
		if k == cycles {
			hook = func(leader *service) error {
				var err error
				rep, err = r.follow(leader)
				return err
			}
		}
		bc, open, err := r.cycle(k, tt, r.ds.model.pointOp(rng), k == cycles, hook)
		if err != nil {
			return err
		}
		bcs, svc = append(bcs, bc), open
	}
	wt.close()
	r.rec.on.Store(false)
	if r.ctx.Err() != nil {
		return nil
	}

	c := newClient(svc.url(), "post", nil)
	defer c.close()
	after, err := readAround(r.ctx, c)
	if err != nil {
		return err
	}
	db, err := svc.srv.DB(dbName)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := db.LoadNTriples(strings.NewReader(extraChunk(r.ds))); err != nil {
		return err
	}
	addUs := us(time.Since(t0))
	_, evalUs, err := r.facade(db, &readLooper{next: func() queryOp { return r.ds.model.pointOp(rng) }})
	if err != nil {
		return err
	}
	if err := r.stop(svc); err != nil {
		return err
	}

	tt.op = tt.load
	r.res.Ops, r.res.Failed, r.res.firstFailure = tt.ops, tt.failed, tt.firstErr
	r.clientMetrics(tt, wt)
	// Every cycle starts from an empty database, so the triples added
	// over the pass are not a difference of two /stats readings.
	before.stats.Triples = after.stats.Triples - cycles*(len(r.ds.base)+len(r.ds.tailTs))
	r.serverMetrics(before, after)
	var loads, opens, colds []float64
	for _, bc := range bcs {
		loads = append(loads, float64(len(r.ds.base))/bc.baseLoad.Seconds())
		opens = append(opens, bc.open.Seconds())
		colds = append(colds, bc.coldQuery.Seconds())
	}
	last := bcs[len(bcs)-1]
	r.res.set(perLayer, "client.bulk_triples_per_s", median(loads), len(loads))
	r.res.set(perLayer, "client.open_s", median(opens), len(opens))
	r.res.set(perLayer, "client.cold_query_s", median(colds), len(colds))
	r.snapBytesPerTriple = float64(last.stats.SnapshotBytes) / float64(len(r.ds.base))
	r.res.set(perLayer, "repl.bootstrap_ms", ms(rep.bootstrap), 1)
	r.res.set(perLayer, "repl.catchup_ms", ms(rep.catchup), 1)
	r.res.set(perLayer, "repl.applied_bytes", float64(rep.applied), 0)
	r.res.set(perLayer, "trace.overhead_ratio", (float64(tt.ops)/wt.wall.Seconds())/(float64(tu.ops)/wu.wall.Seconds()), 0)
	r.res.set(perLayer, "semweb.add_us", addUs, 1)
	r.res.set(perLayer, "semweb.eval_us", evalUs, 0)
	cold := r.ds.model.pointOp(rng)
	return r.replayAndFinish(replayInput{ds: r.ds, tail: true, reads: []queryOp{cold}}, tt.ops)
}

// extraChunk is one more tail-sized load body of fresh subjects, for
// timing the facade's bulk add on the recovered database.
func extraChunk(ds *dataset) string {
	var b strings.Builder
	for i := 0; i < len(ds.tailTs)/tailChunks; i++ {
		fmt.Fprintf(&b, "<urn:bench:x:%d> %s %s .\n", i, iri(propIRI(i%dsProps).Value), iri(indIRI(i).Value))
	}
	return b.String()
}

type replStats struct {
	bootstrap, catchup time.Duration
	applied            int64
}

// follow attaches an in-process read replica to the leader service,
// times its snapshot bootstrap and its catch-up over the WAL tail, and
// closes it again. No end-to-end metric depends on it yet; the numbers
// are the baseline for a later replica_read workload.
func (r *run) follow(leader *service) (replStats, error) {
	var rs replStats
	dir, err := os.MkdirTemp(r.tmp, "follower-")
	if err != nil {
		return rs, err
	}
	r.clean.push(dir, func() error { return os.RemoveAll(dir) })
	c := newClient(leader.url(), "lead", nil)
	defer c.close()
	want, _, err := c.stats(r.ctx)
	if err != nil {
		return rs, err
	}
	t0 := time.Now()
	fdb, err := semweb.FollowAt(dir, "http://"+leader.addr, dbName)
	if err != nil {
		return rs, err
	}
	rs.bootstrap = time.Since(t0)
	r.clean.push(fdb, fdb.Close)
	t1 := time.Now()
	for {
		st := fdb.Stats()
		if st.ReplAppliedRecords >= want.WALRecords && st.Triples == want.Triples {
			rs.applied = st.ReplAppliedBytes
			break
		}
		if time.Since(t1) > 20*time.Second || r.ctx.Err() != nil {
			return rs, fmt.Errorf("replica did not catch up: applied %d of %d records", st.ReplAppliedRecords, want.WALRecords)
		}
		time.Sleep(time.Millisecond)
	}
	rs.catchup = time.Since(t1)
	r.clean.drop(fdb)
	if err := fdb.Close(); err != nil {
		return rs, err
	}
	return rs, r.remove(dir)
}
