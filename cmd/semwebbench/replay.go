package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"semwebdb/internal/closure"
	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/ntriples"
	"semwebdb/internal/persist"
	"semwebdb/internal/query"
	"semwebdb/semweb/serve"
)

// The layer replay re-executes a workload's operations through the
// layers' public functions, a span around each call, in the order the
// facade (semweb.DB.addGraphs, extendPrepared, Stream) and the handler
// (serve.handleQuery) make them. It shares no state with the service
// under test; trace.coverage says how much of the handler's time the
// replayed calls account for, so drift from the real path shows.
//
// Span names are <package>.<call>; ops tagged "bulk-*" build the base
// (every workload's replay starts that way), ops tagged "op-*" are the
// workload's own.

type replayInput struct {
	ds     *dataset
	tail   bool      // also replay bulk_recover's WAL tail
	reads  []queryOp // read operations to replay after the base is prepared
	writes []writeOp // write_read cycles: each write, then its read
	dir    string    // engine directory (exists, empty)
}

type replayOutput struct {
	triples       int     // base (+ tail) triples pushed through the write path
	replayRecords int     // WAL records the reopen replayed
	internNs      float64 // dict.Intern, ns per call over the base's terms
	allocsPerRead float64 // heap allocations per read (parse + stream + encode)
	allocReads    int     // reads behind allocsPerRead
	rows          int     // rows the replayed reads streamed
	derived       []int   // closure triples each replayed write added
}

type replayer struct {
	ctx context.Context
	rec *recorder
	eng *persist.Engine
	d   *dict.Dict
	g   *graph.Graph

	data *graph.Graph
	ix   *match.Index
	m    *closure.Maintainer
}

// write is semweb.DB.addGraphs layer by layer: parse, clone the
// snapshot, intern and add, log with fsync, publish.
func (p *replayer) write(op, body string) ([]dict.Triple3, error) {
	var fresh []dict.Triple3
	var err error
	p.rec.time("replay.write", op, 0, func(root int) {
		var parsed *graph.Graph
		p.rec.time("ntriples.parse", op, root, func(int) {
			parsed, err = ntriples.Parse(strings.NewReader(body))
		})
		if err != nil {
			return
		}
		var next *graph.Graph
		p.rec.time("graph.clone", op, root, func(int) { next = p.g.Clone() })
		p.rec.time("graph.add", op, root, func(int) {
			parsed.Each(func(t graph.Triple) bool {
				if enc := next.InternTriple(t); next.AddID(enc) {
					fresh = append(fresh, enc)
				}
				return true
			})
		})
		p.rec.time("persist.append", op, root, func(int) { err = p.eng.Append(p.d, fresh) })
		p.g = next
	})
	return fresh, err
}

// extend is semweb's extendPrepared: translate the batch into the
// prepared universe's overlay dictionary, delta-saturate, merge the
// new closure triples into the index.
func (p *replayer) extend(op string, batch []dict.Triple3) (int, error) {
	var added []dict.Triple3
	var err error
	p.rec.time("replay.extend", op, 0, func(root int) {
		to := p.data.Dict()
		ids := make([]dict.Triple3, len(batch))
		p.rec.time("dict.reintern", op, root, func(int) {
			for i, t := range batch {
				ids[i] = dict.Triple3{to.Intern(p.d.TermOf(t[0])), to.Intern(p.d.TermOf(t[1])), to.Intern(p.d.TermOf(t[2]))}
			}
		})
		p.rec.time("closure.delta_apply", op, root, func(int) { added, err = p.m.Apply(p.ctx, ids) })
		if err != nil {
			return
		}
		p.rec.time("match.index_extend", op, root, func(int) {
			p.ix = p.ix.ExtendedByIDs(added)
			p.data = p.ix.Graph()
		})
	})
	return len(added), err
}

// encodeRow is serve's rowMessage plus the NDJSON encode.
func encodeRow(enc *json.Encoder, s query.Single) error {
	msg := serve.RowMessage{Matching: s.Matching}
	msg.Triples = strings.Split(strings.TrimRight(ntriples.SerializeString(s.Graph), "\n"), "\n")
	if len(s.Binding) > 0 {
		msg.Bindings = make(map[string]string, len(s.Binding))
		for v, b := range s.Binding {
			msg.Bindings[v.Value] = b.String()
		}
	}
	return enc.Encode(msg)
}

// stream is the read path without spans: parse, stream, encode.
func (p *replayer) stream(q queryOp, onRow func(query.Single)) (int, error) {
	pq, err := query.ParseQuery(q.text)
	if err != nil {
		return 0, err
	}
	st, err := query.StreamPreparedIndexCtx(p.ctx, pq, p.ix, query.Options{MaxMatchings: q.limit}, func(s query.Single) bool {
		onRow(s)
		return true
	})
	return st.Singles, err
}

// read is serve.handleQuery's engine work: parse the text, stream the
// prepared index, encode each row. The solver and the scratch
// interning run inside the stream; they are also timed on their own,
// as sibling spans outside the operation's root.
func (p *replayer) read(op string, q queryOp) (int, error) {
	enc := json.NewEncoder(io.Discard)
	var pq *query.Query
	var err error
	rows := 0
	p.rec.time("replay.read", op, 0, func(root int) {
		p.rec.time("query.parse", op, root, func(int) { pq, err = query.ParseQuery(q.text) })
		if err != nil {
			return
		}
		p.rec.time("query.stream", op, root, func(sid int) {
			var encoding time.Duration
			first := time.Now()
			_, err = query.StreamPreparedIndexCtx(p.ctx, pq, p.ix, query.Options{MaxMatchings: q.limit}, func(s query.Single) bool {
				t0 := time.Now()
				if err := encodeRow(enc, s); err != nil {
					return false
				}
				encoding += time.Since(t0)
				rows++
				return true
			})
			// One child span per operation carrying the summed row
			// encodes keeps a 5000-row stream from being 5000 spans.
			p.rec.add("serve.encode", op, sid, first, encoding)
		})
	})
	if err != nil {
		return rows, err
	}
	if rows != q.want {
		return rows, fmt.Errorf("replay of %s streamed %d rows, model expects %d", q.shape, rows, q.want)
	}
	p.rec.time("dict.scratch_intern", op, 0, func(int) {
		sd := p.ix.Dict().Scratch()
		for _, ts := range [][]graph.Triple{pq.Body, pq.Head} {
			for _, t := range ts {
				sd.Intern(t.S)
				sd.Intern(t.P)
				sd.Intern(t.O)
			}
		}
	})
	p.rec.time("match.solve."+q.shape, op, 0, func(int) {
		solver := match.NewSolver(p.ix, match.Options{Ctx: p.ctx, Dict: p.ix.Dict().Scratch()})
		n := 0
		solver.Solve(pq.Body, func(match.Binding) bool {
			n++
			return q.limit == 0 || n < q.limit
		})
	})
	return rows, nil
}

// replayLayers runs the whole replay for one workload; the spans land
// in rec.
func replayLayers(ctx context.Context, rec *recorder, in replayInput) (replayOutput, error) {
	var out replayOutput
	eng, d, g, err := persist.Open(in.dir, persist.Options{})
	if err != nil {
		return out, err
	}
	p := &replayer{ctx: ctx, rec: rec, eng: eng, d: d, g: g}
	defer func() { _ = p.eng.Close() }()

	bulk := func(tag string, chunks []string) error {
		for i, body := range chunks {
			fresh, err := p.write(fmt.Sprintf("%s-%d", tag, i), body)
			if err != nil {
				return err
			}
			out.triples += len(fresh)
		}
		return nil
	}
	if err := bulk("bulk", in.ds.chunks); err != nil {
		return out, err
	}
	rec.time("persist.snapshot", "bulk", 0, func(int) { err = p.eng.Compact(p.g) })
	if err != nil {
		return out, err
	}
	if in.tail {
		if err := bulk("bulk-tail", in.ds.tail); err != nil {
			return out, err
		}
	}
	if err := p.eng.Close(); err != nil {
		return out, err
	}
	rec.time("persist.open", "bulk", 0, func(int) { p.eng, p.d, p.g, err = persist.Open(in.dir, persist.Options{}) })
	if err != nil {
		return out, err
	}
	out.replayRecords = p.eng.Stats().WALRecords

	// What semweb.DB.fullPrepare does on the first query.
	rec.time("closure.full", "bulk", 0, func(int) {
		p.data, err = query.PrepareWorkers(ctx, p.g.WithDict(p.d.Scratch()), false, 1)
	})
	if err != nil {
		return out, err
	}
	// The sorted permutations are lazy: the first scan that needs one
	// sorts it. SPO, which every query shape here touches, is timed as
	// the index build; the warm-up below, off the record like the
	// service's own warm-up, builds whichever others the workload's
	// shapes use and no more, because every permutation that exists is
	// merged on each later write (match.index_extend).
	rec.time("match.index_build", "bulk", 0, func(int) {
		p.ix = match.NewIndex(p.data)
		p.data.Index(dict.SPO)
	})
	rec.time("closure.maintainer_seed", "bulk", 0, func(int) { p.m = closure.NewMaintainer(p.data) })
	queries := append([]queryOp(nil), in.reads...)
	for _, w := range in.writes {
		queries = append(queries, w.query)
	}
	rec.on.Store(false)
	warmed := map[string]bool{}
	for _, q := range queries {
		if !warmed[q.shape] {
			warmed[q.shape] = true
			if _, err := p.stream(q, func(query.Single) {}); err != nil {
				return out, err
			}
		}
	}
	rec.on.Store(true)

	// dict.Intern on its own: every term occurrence of the base into a
	// fresh dictionary, first sightings and repeats as a load sees them.
	fresh := dict.New()
	t0 := time.Now()
	for _, t := range in.ds.base {
		fresh.Intern(t.S)
		fresh.Intern(t.P)
		fresh.Intern(t.O)
	}
	out.internNs = float64(time.Since(t0).Nanoseconds()) / float64(3*len(in.ds.base))

	for i, w := range in.writes {
		op := fmt.Sprintf("op-%d", i)
		batch, err := p.write(op, w.body)
		if err != nil {
			return out, err
		}
		n, err := p.extend(op, batch)
		if err != nil {
			return out, err
		}
		out.derived = append(out.derived, n)
		rows, err := p.read(op, w.query)
		if err != nil {
			return out, err
		}
		out.rows += rows
	}
	for i, q := range in.reads {
		rows, err := p.read(fmt.Sprintf("op-%d", i), q)
		if err != nil {
			return out, err
		}
		out.rows += rows
	}

	// Allocations per read, measured over the same reads without spans
	// (ReadMemStats stops the world, so once around the lot).
	if len(queries) > 0 {
		enc := json.NewEncoder(io.Discard)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, q := range queries {
			if _, err := p.stream(q, func(s query.Single) { _ = encodeRow(enc, s) }); err != nil {
				return out, err
			}
		}
		runtime.ReadMemStats(&after)
		out.allocsPerRead = float64(after.Mallocs-before.Mallocs) / float64(len(queries))
		out.allocReads = len(queries)
	}
	return out, nil
}
