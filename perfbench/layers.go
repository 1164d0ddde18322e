package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"blackboxflow/internal/transport"
)

// relayStats asks each worker for its relay totals. These are the numbers
// /metrics reports per worker, but /metrics refreshes them only on its
// health sweeps, at most every 5s; the workers' own answer is current.
func relayStats(ctx context.Context, workers []string) ([]transport.WorkerStats, error) {
	out := make([]transport.WorkerStats, len(workers))
	for i, addr := range workers {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		st, err := transport.PingStats(pctx, addr, nil)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("worker %s relay stats: %w", addr, err)
		}
		out[i] = st
	}
	return out, nil
}

// engineStats is the part of one operator's statistics in GET /jobs/{id}.
type engineStats struct {
	ShippedBytes int
	UDFCalls     int
	SpilledBytes int
	SpillRuns    int
}

// spanNode is the part of GET /jobs/{id}/trace the benchmark reads.
type spanNode struct {
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	End      time.Time   `json:"end"`
	Children []*spanNode `json:"children"`
}

// endpointMetrics fills the per-layer metrics read from the client, the
// fleet's processes and flowserve's endpoints after the window, and returns
// the /metrics snapshot it took.
func endpointMetrics(ctx context.Context, f *fleet, win *window, res *result,
	before schedMetrics, relayBefore []transport.WorkerStats) (schedMetrics, error) {
	put := res.put
	var after schedMetrics
	if err := f.getJSON(ctx, "/metrics", &after); err != nil {
		return after, err
	}
	relayAfter, err := relayStats(ctx, f.workers)
	if err != nil {
		return after, err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return after, err
	}

	var ok []*outcome
	var lat []float64
	var reqBytes, respBytes int
	for i := range win.outcomes {
		if o := &win.outcomes[i]; o.ok() {
			ok = append(ok, o)
			lat = append(lat, ms(o.latency()))
			reqBytes += len(o.doc.body)
			respBytes += len(o.body)
		}
	}
	n, attempted := float64(len(ok)), float64(res.Attempted)
	put("client.jobs", attempted, "count")
	put("error_rate", float64(res.Failed)/attempted, "ratio")
	p90 := 0.0 // not reported: fewer than ten samples beyond p90
	if len(ok) >= 100 {
		p90 = percentile(lat, 0.9)
	}
	put("job_p90_ms", p90, "ms")
	put("fleet.window_peak_rss_mb", float64(rss)/mib, "MiB")
	put("flowserve.request_mb", float64(reqBytes)/n/mib, "MiB")
	put("flowserve.response_mb", float64(respBytes)/n/mib, "MiB")

	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	put("jobs.flow_cache_hit_ratio", ratio(after.FlowCacheHits-before.FlowCacheHits, after.FlowCacheMisses-before.FlowCacheMisses), "ratio")
	put("jobs.plan_cache_hit_ratio", ratio(after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses), "ratio")
	put("jobs.worker_fallbacks", float64(after.WorkerFallbacks-before.WorkerFallbacks), "count")
	qa, qb := after.Histograms["queue_wait_seconds"], before.Histograms["queue_wait_seconds"]
	qwait := 0.0
	if qa.Count > qb.Count {
		qwait = (qa.Sum - qb.Sum) / float64(qa.Count-qb.Count) * 1e3
	}
	put("jobs.queue_wait_ms", qwait, "ms")

	var bytes, frames, maxBytes float64
	for i := range relayAfter {
		b := float64(relayAfter[i].Bytes - relayBefore[i].Bytes)
		bytes += b
		frames += float64(relayAfter[i].Frames - relayBefore[i].Frames)
		maxBytes = max(maxBytes, b)
	}
	put("transport.wire_mb_per_job", bytes/attempted/mib, "MiB")
	put("transport.frames_per_job", frames/attempted, "count")
	skew := 0.0
	if bytes > 0 {
		skew = maxBytes / (bytes / float64(len(relayAfter)))
	}
	put("transport.worker_skew", skew, "ratio")

	var shipped, spilled, runs, calls float64
	phases := map[string][]float64{}
	for _, o := range ok {
		var st struct {
			Stats []engineStats `json:"stats"`
		}
		if err := f.getJSON(ctx, fmt.Sprintf("/jobs/%d", o.id), &st); err != nil {
			return after, err
		}
		for _, s := range st.Stats {
			shipped += float64(s.ShippedBytes)
			spilled += float64(s.SpilledBytes)
			runs += float64(s.SpillRuns)
			calls += float64(s.UDFCalls)
		}
		var tree spanNode
		if err := f.getJSON(ctx, fmt.Sprintf("/jobs/%d/trace", o.id), &tree); err != nil {
			return after, err
		}
		for _, c := range tree.Children {
			phases[c.Name] = append(phases[c.Name], ms(c.End.Sub(c.Start)))
		}
	}
	put("engine.shipped_mb_per_job", shipped/n/mib, "MiB")
	put("engine.spilled_mb_per_job", spilled/n/mib, "MiB")
	put("engine.spill_runs_per_job", runs/n, "count")
	put("engine.udf_calls_per_job", calls/n, "count")
	for _, ph := range []string{"compile", "queue", "optimize", "run"} {
		put("obs."+ph+"_ms", median(phases[ph]), "ms")
	}
	return after, nil
}

// replayMetrics replays the window's successful documents through the
// layers for at most d and fills the span medians, the residual and the
// replay's cost against the untraced run.
func replayMetrics(ctx context.Context, r *replayer, win *window, warm *doc, clients int, d time.Duration, p50 float64, res *result) error {
	put := res.put
	var docs []*doc
	for i := range win.outcomes {
		if o := &win.outcomes[i]; o.ok() {
			docs = append(docs, o.doc)
		}
	}
	replayed, err := r.run(ctx, warm, docs, clients, d)
	if err != nil {
		return err
	}
	sum := 0.0
	for _, name := range append(slices.Clone(topSpans), childSpans...) {
		vals := make([]float64, len(replayed))
		for i, js := range replayed {
			vals[i] = ms(js.spans[name])
		}
		v := median(vals)
		put(name, v, "ms")
		if slices.Contains(topSpans, name) {
			sum += v
		}
	}
	var alts, walls []float64
	for _, js := range replayed {
		if js.alternatives > 0 {
			alts = append(alts, float64(js.alternatives))
		}
		wall := js.wall
		for _, name := range childSpans {
			wall -= js.spans[name]
		}
		walls = append(walls, ms(wall))
	}
	put("optimizer.alternatives", median(alts), "count")
	put("residual_ms", p50-sum, "ms")
	put("residual_share", (p50-sum)/p50, "ratio")
	replayMs := median(walls)
	put("trace.replay_ms", replayMs, "ms")
	put("trace.slowdown", replayMs/p50, "ratio")
	put("trace.jobs", float64(len(replayed)), "count")
	fmt.Printf("layers: job_p50 %.1f ms = spans %.1f ms + residual %.1f ms (%.1f%%) over %d replayed jobs\n",
		p50, sum, p50-sum, 100*(p50-sum)/p50, len(replayed))
	return nil
}
