package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/engine"
	"blackboxflow/internal/frontend"
	"blackboxflow/internal/jobs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/sca"
	"blackboxflow/internal/transport"
)

// Span names of the traced replay. topSpans run one after another on a
// job's path and, with the residual, make up its latency; the two child
// spans re-measure work that a top span already contains.
var (
	topSpans = []string{"jobs.decode_ms", "frontend.compile_ms", "dataflow.build_ms",
		"optimizer.plan_ms", "engine.run_ms", "jobs.encode_ms"}
	childSpans = []string{"sca.analyze_ms", "optimizer.enumerate_ms"}
)

// jobSpans is one replayed job: the time of each span, the number of
// enumerated alternatives (0 on a plan-cache hit) and the job's wall time.
type jobSpans struct {
	spans        map[string]time.Duration
	alternatives int
	wall         time.Duration
}

// replayer calls the layers' public functions in the order flowserve's
// scheduler does, against the fleet's workers, and times each call. It
// keeps the same two caches as the scheduler, keyed on the same inputs
// (script, flow and resolved source hints), so a workload that hits the
// service's caches skips the same layers here.
type replayer struct {
	workers []string
	profile optimizer.NetProfile
	dop     int
	grant   int // default memory grant; a document's own budget wins
	spill   string

	mu    sync.Mutex
	flows map[string]*dataflow.Flow
	plans map[string]*optimizer.PhysPlan
}

// run replays the warm-up document, untimed, and then the documents from
// `clients` concurrent clients, each on its own engine, until all are done
// or the deadline passes. It checks every result.
func (r *replayer) run(ctx context.Context, warm *doc, docs []*doc, clients int, d time.Duration) ([]jobSpans, error) {
	r.flows = map[string]*dataflow.Flow{}
	r.plans = map[string]*optimizer.PhysPlan{}
	if _, err := r.job(ctx, engine.New(r.dop), warm); err != nil {
		return nil, fmt.Errorf("traced warm-up job: %w", err)
	}
	out := make([]jobSpans, len(docs))
	errs := make([]error, clients)
	var next atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := engine.New(r.dop)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				js, err := r.job(ctx, eng, docs[i])
				if err != nil {
					errs[c] = fmt.Errorf("traced job %d: %w", docs[i].index, err)
					return
				}
				out[i] = js
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	n := int(min(next.Load(), int64(len(docs))))
	return out[:n], ctx.Err()
}

// job replays one document.
func (r *replayer) job(ctx context.Context, eng *engine.Engine, d *doc) (jobSpans, error) {
	js := jobSpans{spans: map[string]time.Duration{}}
	begin := time.Now()
	t := begin
	lap := func(name string) {
		now := time.Now()
		js.spans[name] += now.Sub(t)
		t = now
	}

	// Decode: the document, then its rows (Scheduler.ParseScriptJob).
	dec := json.NewDecoder(bytes.NewReader(d.body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	var sj jobs.ScriptJob
	if err := dec.Decode(&sj); err != nil {
		return js, err
	}
	sources := make(map[string]record.DataSet, len(sj.Data))
	for name, rows := range sj.Data {
		ds, err := jobs.DecodeRows(rows)
		if err != nil {
			return js, fmt.Errorf("source %q: %w", name, err)
		}
		sources[name] = ds
	}
	lap("jobs.decode_ms")

	// The flow cache: compile, build and analyze only on a miss.
	key := cacheKey(&sj, sources)
	r.mu.Lock()
	flow := r.flows[key]
	r.mu.Unlock()
	if flow == nil {
		t = time.Now()
		prog, err := frontend.Compile(sj.Script)
		if err != nil {
			return js, err
		}
		lap("frontend.compile_ms")
		if flow, err = jobs.BuildFlow(&sj.Flow, prog, sources); err != nil {
			return js, err
		}
		lap("dataflow.build_ms")
		// BuildFlow already derived the effects; analyze each UDF again
		// to see what static analysis costs on its own.
		for _, op := range flow.Operators() {
			if op.UDF != nil {
				if _, err := sca.Analyze(op.UDF); err != nil {
					return js, err
				}
			}
			if op.Combiner != nil {
				if _, err := sca.Analyze(op.Combiner); err != nil {
					return js, err
				}
			}
		}
		lap("sca.analyze_ms")
		r.mu.Lock()
		r.flows[key] = flow
		r.mu.Unlock()
	}

	// Rows move to the flow's global attribute positions, as
	// ParseScriptJob does after building the flow.
	t = time.Now()
	for _, src := range sj.Flow.Sources {
		ds, ok := sources[src.Name]
		if !ok {
			continue
		}
		g, err := toGlobal(flow, src, ds)
		if err != nil {
			return js, err
		}
		sources[src.Name] = g
	}
	lap("jobs.decode_ms")

	// The plan cache: enumerate and rank only on a miss.
	grant := r.grant
	if sj.MemoryBudgetBytes > 0 {
		grant = sj.MemoryBudgetBytes
	}
	r.mu.Lock()
	plan := r.plans[key]
	r.mu.Unlock()
	if plan == nil {
		t = time.Now()
		tree, err := optimizer.FromFlow(flow)
		if err != nil {
			return js, err
		}
		js.alternatives = len(optimizer.NewEnumerator().Enumerate(tree))
		lap("optimizer.enumerate_ms")
		if tree, err = optimizer.FromFlow(flow); err != nil {
			return js, err
		}
		ranked := optimizer.RankAllNet(tree, optimizer.NewEstimator(flow), r.dop, float64(grant), r.profile)
		if len(ranked) == 0 {
			return js, fmt.Errorf("optimizer produced no plan")
		}
		plan = ranked[0].Phys
		lap("optimizer.plan_ms")
		r.mu.Lock()
		r.plans[key] = plan
		r.mu.Unlock()
	}

	// Run over a job-scoped TCP transport to the fleet's workers, under
	// the job's grant, as the scheduler's pooled engines do.
	tp, err := transport.NewTCP(transport.TCPConfig{Workers: r.workers})
	if err != nil {
		return js, err
	}
	eng.Sources = sources
	eng.MemoryBudget = grant
	eng.SpillDir = r.spill
	eng.Transport = tp
	t = time.Now()
	out, _, err := eng.RunContext(ctx, plan)
	lap("engine.run_ms")
	eng.Sources, eng.Transport = nil, nil
	tp.Close()
	if err != nil {
		return js, err
	}

	// Encode the answer as flowserve's writeJSON does.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"id": d.index, "rows": jobs.EncodeRows(out)}); err != nil {
		return js, err
	}
	lap("jobs.encode_ms")
	js.wall = time.Since(begin)
	if _, err := d.want.Check(buf.Bytes()); err != nil {
		return js, err
	}
	return js, nil
}

// cacheKey is the digest's input in the scheduler's plan cache: script,
// flow wiring and each source's resolved hints.
func cacheKey(sj *jobs.ScriptJob, sources map[string]record.DataSet) string {
	var b bytes.Buffer
	b.WriteString(sj.Script)
	b.WriteByte(0)
	json.NewEncoder(&b).Encode(sj.Flow)
	for _, src := range sj.Flow.Sources {
		recs, width := src.Records, src.AvgWidthByte
		if ds := sources[src.Name]; len(ds) > 0 {
			if recs == 0 {
				recs = float64(len(ds))
			}
			if width == 0 {
				width = float64(ds.TotalSize()) / float64(len(ds))
			}
		}
		fmt.Fprintf(&b, "%s|%g|%g\n", src.Name, recs, width)
	}
	return b.String()
}

// toGlobal places a source's rows at the flow's global attribute indices.
func toGlobal(flow *dataflow.Flow, src jobs.SourceDef, ds record.DataSet) (record.DataSet, error) {
	idx := make([]int, len(src.Attrs))
	width := 0
	for i, a := range src.Attrs {
		gi, ok := flow.AttrIndex(a)
		if !ok {
			return nil, fmt.Errorf("source %q attr %q not declared", src.Name, a)
		}
		idx[i] = gi
		width = max(width, gi+1)
	}
	out := make(record.DataSet, len(ds))
	for r, rec := range ds {
		if len(rec) != len(idx) {
			return nil, fmt.Errorf("source %q row %d has %d fields, want %d", src.Name, r, len(rec), len(idx))
		}
		g := make(record.Record, width)
		for i, v := range rec {
			g[idx[i]] = v
		}
		out[r] = g
	}
	return out, nil
}
