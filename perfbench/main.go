// Command perfbench is the repository's end-to-end benchmark. It starts a
// fleet of two flowworker processes and one flowserve, drives one workload
// of job documents through POST /jobs?wait=1 from closed-loop clients,
// checks every result against an answer computed independently
// (perfbench/gen), and prints each metric by name and unit. The last line
// of standard output is one JSON object with the run's verdict and metrics.
//
//	bash perfbench/run.sh --workload bulk-join --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the same timed window, then reads the service's public endpoints and
// replays the documents through each layer's public Go functions against
// the same workers, timing every call, and reports the per-layer metrics.
// BENCHMARK.json at the repository root lists the metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"blackboxflow/internal/optimizer"
	"blackboxflow/perfbench/gen"
)

// maxRate sizes each workload's pre-generated document pool: seconds ×
// maxRate documents, with headroom over the rate the workload runs at
// today. A run that sends them all ends early and says so.
var maxRate = map[string]float64{"bulk-join": 2.5, "plan-storm": 50, "spill-agg": 2}

// fillJobs is how many untimed jobs run between set-up and the timed
// window. flowserve's registry keeps finished jobs, so its heap grows with
// every job and its GC runs less often; plan-storm gets about 25% faster
// over its first few hundred jobs, and a window that started on a cold
// registry would measure how many jobs fit in it as much as their cost.
// The other workloads' jobs are too long to fill for.
var fillJobs = map[string]int{"plan-storm": 250}

const (
	// setups is how many times a --trace 0 run starts a fleet to measure
	// set-up time; the last fleet serves the timed window.
	setups = 5
	// defaultGrant is the memory grant flowserve gives a job that asks
	// for none: its default -global-budget (64 MiB) over -max-concurrent.
	defaultGrant = (64 << 20) / 2
	// dop is the fleet's -dop.
	dop = 4
	mib = 1 << 20
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func main() {
	workload := flag.String("workload", "", "workload name: bulk-join, plan-storm or spill-agg")
	seed := flag.Int64("seed", 1, "seed the job documents are generated from")
	seconds := flag.Int("seconds", 25, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from endpoints and a traced replay")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the flowserve and flowworker binaries")
	workDir := flag.String("work", ".bench_build", "directory for logs and spill files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := gen.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	// A hung fleet must not hang the run: everything after the build has
	// to finish well inside the time a run is allowed.
	window := time.Duration(*seconds) * time.Second
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, 2*window+90*time.Second)
	res, err := run(ctx, w, *seed, window, *trace == 1, *binDir, *workDir)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("metric %-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(ctx context.Context, w gen.Workload, seed int64, seconds time.Duration, traced bool, binDir, workDir string) (*result, error) {
	env, _ := json.Marshal(map[string]any{
		"workload": w.Name, "seed": seed, "seconds": seconds.Seconds(), "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"clients": w.Clients, "fleet": "2 x flowworker; flowserve -workers <both> " + strings.Join(fleetFlags, " "),
		"generator": w.Params,
	})
	fmt.Println("env", string(env))

	nSetups := setups
	if traced {
		nSetups = 1
	}
	poolSize := int(seconds.Seconds()*maxRate[w.Name]) + 1
	t0 := time.Now()
	nFill := fillJobs[w.Name]
	docs := generate(w, seed, poolSize+nSetups+nFill)
	timedDocs, warmDocs, fillDocs := docs[:poolSize], docs[poolSize:poolSize+nSetups], docs[poolSize+nSetups:]
	fmt.Printf("generated %d documents in %.1fs\n", len(docs), time.Since(t0).Seconds())

	// Set-up: spawn the fleet, wait until it is ready, run one warm-up
	// job. Repeated so the median is steady; the last fleet stays up. The
	// fleet's peak RSS is read here, after one job: finished jobs stay in
	// flowserve's registry with their inputs, so RSS later grows with the
	// number of jobs a run completes, which differs between faster and
	// slower programs.
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	var setupTimes, setupRSS []float64
	for k := 0; k < nSetups; k++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		var err error
		if f, err = startFleet(ctx, binDir, workDir, fmt.Sprintf("%s-%d", w.Name, k)); err != nil {
			return nil, err
		}
		client := newClient(1)
		warm := submit(ctx, client, f.url, warmDocs[k])
		client.CloseIdleConnections()
		warm.check()
		if !warm.ok() {
			return nil, fmt.Errorf("warm-up job: %v", warm.err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		rss, err := f.peakRSS()
		if err != nil {
			return nil, err
		}
		setupRSS = append(setupRSS, float64(rss)/mib)
	}

	if len(fillDocs) > 0 {
		fill, err := runWindow(ctx, f.url, fillDocs, w.Clients, time.Minute)
		if err != nil {
			return nil, err
		}
		for i := range fill.outcomes {
			o := &fill.outcomes[i]
			if o.check(); !o.ok() {
				return nil, fmt.Errorf("fill job: %v", o.err)
			}
		}
	}

	var before schedMetrics
	if err := f.getJSON(ctx, "/metrics", &before); err != nil {
		return nil, err
	}
	if before.Workers != 2 || before.HealthyWorkers != 2 {
		return nil, fmt.Errorf("fleet not ready: workers=%d healthy_workers=%d, want 2 and 2", before.Workers, before.HealthyWorkers)
	}
	// The workers' ephemeral addresses identify the flowserve that
	// answers as the one this run started.
	for _, addr := range f.workers {
		if _, ok := before.WorkerNet[addr]; !ok || len(before.WorkerNet) != len(f.workers) {
			return nil, fmt.Errorf("flowserve at %s reports workers %v, not this run's %v", f.url, before.WorkerNet, f.workers)
		}
	}
	relayBefore, err := relayStats(ctx, f.workers)
	if err != nil {
		return nil, err
	}
	cpuBefore, err := f.cpuTime()
	if err != nil {
		return nil, err
	}

	win, err := runWindow(ctx, f.url, timedDocs, w.Clients, seconds)
	if err != nil {
		return nil, err
	}
	cpuAfter, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	if err := f.alive(); err != nil {
		return nil, err
	}
	if win.exhausted {
		fmt.Printf("note: all %d documents were sent before the deadline; the window ended early\n", len(timedDocs))
	}

	// Check every result; failures, refusals and wrong rows all count.
	res := &result{Attempted: len(win.outcomes), Metrics: map[string]metric{}}
	var lat []float64
	var wrong int
	for i := range win.outcomes {
		o := &win.outcomes[i]
		o.check()
		if o.ok() {
			lat = append(lat, ms(o.latency()))
			continue
		}
		res.Failed++
		if o.status == 200 {
			wrong++
		}
		if res.Failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: failed job %d: %v\n", o.doc.index, o.err)
		}
	}
	res.Correct = wrong == 0 && len(lat) > 0
	if len(lat) == 0 {
		return res, fmt.Errorf("no job of %d succeeded", res.Attempted)
	}
	p50 := median(lat)
	fmt.Printf("timed window: %d jobs, %d failed, %.2fs, p50 %.1f ms\n",
		res.Attempted, res.Failed, win.end.Sub(win.start).Seconds(), p50)
	fmt.Printf("latency_ms in completion order:")
	for _, l := range lat {
		fmt.Printf(" %.0f", l)
	}
	fmt.Println()

	if !traced {
		res.put("job_p50_ms", p50, "ms")
		res.put("jobs_per_s", float64(len(lat))/win.end.Sub(win.start).Seconds(), "1/s")
		res.put("setup_s", median(setupTimes), "s")
		res.put("peak_rss_mb", median(setupRSS), "MiB")
		res.put("cpu_ms_per_job", ms(cpuAfter-cpuBefore)/float64(res.Attempted), "ms")
		return res, nil
	}
	after, err := endpointMetrics(ctx, f, win, res, before, relayBefore)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		workers: f.workers,
		profile: optimizer.NetProfile{BytesPerSec: after.NetBytesPerSec, LatencySec: after.NetLatencySec},
		dop:     dop,
		grant:   defaultGrant,
		spill:   filepath.Join(workDir, "spill"),
	}
	if err := replayMetrics(ctx, r, win, warmDocs[0], w.Clients, seconds/2, p50, res); err != nil {
		return nil, err
	}
	return res, nil
}

// generate makes the documents on every CPU; it runs before any timing.
func generate(w gen.Workload, seed int64, n int) []*doc {
	docs := make([]*doc, n)
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += workers {
				job := w.Job(seed, i)
				docs[i] = &doc{index: i, body: job.Doc, want: gen.Expect(job.Expected)}
			}
		}()
	}
	wg.Wait()
	return docs
}

// schedMetrics is the part of flowserve's GET /metrics the benchmark reads.
type schedMetrics struct {
	Workers         int                        `json:"workers"`
	HealthyWorkers  int                        `json:"healthy_workers"`
	FlowCacheHits   int64                      `json:"flow_cache_hits"`
	FlowCacheMisses int64                      `json:"flow_cache_misses"`
	PlanCacheHits   int64                      `json:"plan_cache_hits"`
	PlanCacheMisses int64                      `json:"plan_cache_misses"`
	WorkerFallbacks int64                      `json:"worker_fallbacks"`
	NetBytesPerSec  float64                    `json:"net_bytes_per_sec"`
	NetLatencySec   float64                    `json:"net_latency_sec"`
	WorkerNet       map[string]json.RawMessage `json:"worker_net"`
	Histograms      map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median, or 0 for no values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile.
func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*q)) - 1
	return s[max(0, min(i, len(s)-1))]
}
