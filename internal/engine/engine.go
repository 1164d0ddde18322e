// Package engine executes physical plans produced by the optimizer on a
// shared-nothing, multi-goroutine runtime — the repository's substitute for
// the paper's Nephele execution engine (see DESIGN.md).
//
// Each operator runs with a configurable degree of parallelism: the data of
// every edge is split into DOP partitions, shipping strategies move records
// between partitions (hash partitioning, broadcast, or local forwarding),
// and local strategies (hash join, sort-merge join, sort/hash grouping,
// nested loops) process each partition in its own goroutine. The engine
// records per-operator statistics — records, shipped bytes, UDF calls — so
// experiments can relate estimated costs to observed work.
//
// All non-forward shipping flows through a transport.Transport (see
// internal/transport): the engine decides what moves where (hash routing,
// batching, byte accounting), the transport decides how the bytes get
// there. The default transport.Channel keeps everything in-process over
// unbuffered channels; transport.TCP places shuffle partitions on
// flowworker processes and frames batches over sockets. The engine's
// sender/collector topology, batch flushing, cancellation, and statistics
// are identical across transports.
//
// The engine is memory-budgeted: when Engine.MemoryBudget is set, shuffle
// receivers feeding a grouping or join operator (Reduce, CoGroup, Match)
// track resident bytes per partition and, on overflow, sort the buffered
// records by the operator's key and spill them to disk as a sorted run
// (internal/spill); the local strategy then switches to external
// sort-merge execution over the merged runs — grouping for Reduce/CoGroup,
// a merge join for Match — so working sets larger than memory complete
// with bounded resident bytes and byte-identical output. Combiners keep
// running on the senders pre-spill, so spilled runs are already partially
// aggregated. See DESIGN.md ("Memory model & spilling").
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/faultfs"
	"blackboxflow/internal/obs"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/spill"
	"blackboxflow/internal/tac"
	"blackboxflow/internal/transport"
)

// cancelStride is how many records (or groups) a hot loop processes between
// cooperative context checks. Checking per record would put a synchronized
// load on every iteration of the engine's innermost loops; every 256th
// record bounds cancellation latency to a few microseconds of work while
// keeping the check invisible in profiles.
const cancelStride = 256

// ticker counts loop iterations so hot loops only consult the context every
// cancelStride records. The zero value is ready to use; each goroutine owns
// its own ticker (they are not safe for sharing).
type ticker struct{ n int }

// due reports whether the caller should check its context now.
func (t *ticker) due() bool {
	t.n++
	return t.n%cancelStride == 0
}

// Partitioned is a data set split into DOP partitions.
type Partitioned [][]record.Record

// Records counts all records across partitions.
func (p Partitioned) Records() int {
	n := 0
	for _, part := range p {
		n += len(part)
	}
	return n
}

// Flatten merges all partitions into a single data set.
func (p Partitioned) Flatten() record.DataSet {
	var out record.DataSet
	for _, part := range p {
		out = append(out, part...)
	}
	return out
}

// OpStats are the runtime statistics of one operator execution.
type OpStats struct {
	Name         string
	InRecords    int
	OutRecords   int
	ShippedBytes int // bytes moved by non-forward shipping
	UDFCalls     int
	// CombinerCalls counts pre-shuffle partial-aggregation (combiner) UDF
	// invocations the shuffle senders performed on the operator's behalf.
	// They are tracked separately from UDFCalls so a combined and an
	// uncombined run of the same plan report identical UDFCalls (the final
	// aggregation sees the same key groups either way).
	CombinerCalls int
	// SpilledBytes counts bytes written to disk by budget-overflowing
	// shuffle receivers (run framing included); SpillRuns counts the sorted
	// runs those receivers wrote. Both are zero when the operator's working
	// set fit within Engine.MemoryBudget (or no budget was set).
	SpilledBytes int
	SpillRuns    int
	ShipTime     time.Duration // wall time spent shipping inputs
	LocalTime    time.Duration // wall time spent in the local strategy
}

// RunStats aggregates statistics of a plan execution.
type RunStats struct {
	PerOp []OpStats
}

// TotalShippedBytes sums network traffic over all operators.
func (r *RunStats) TotalShippedBytes() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.ShippedBytes
	}
	return n
}

// TotalUDFCalls sums UDF invocations over all operators (combiner calls
// excluded; see TotalCombinerCalls).
func (r *RunStats) TotalUDFCalls() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.UDFCalls
	}
	return n
}

// TotalCombinerCalls sums pre-shuffle combiner invocations over all
// operators.
func (r *RunStats) TotalCombinerCalls() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.CombinerCalls
	}
	return n
}

// TotalSpilledBytes sums disk bytes written by overflowing shuffle
// receivers over all operators.
func (r *RunStats) TotalSpilledBytes() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.SpilledBytes
	}
	return n
}

// TotalSpillRuns sums sorted on-disk runs written over all operators.
func (r *RunStats) TotalSpillRuns() int {
	n := 0
	for _, s := range r.PerOp {
		n += s.SpillRuns
	}
	return n
}

// String renders a per-operator summary.
func (r *RunStats) String() string {
	var b []byte
	for _, s := range r.PerOp {
		b = fmt.Appendf(b, "%-24s in=%-9d out=%-9d shipped=%-11d calls=%-9d ship=%-12v local=%v",
			s.Name, s.InRecords, s.OutRecords, s.ShippedBytes, s.UDFCalls, s.ShipTime, s.LocalTime)
		if s.CombinerCalls > 0 {
			b = fmt.Appendf(b, " combine=%d", s.CombinerCalls)
		}
		if s.SpillRuns > 0 {
			b = fmt.Appendf(b, " spilled=%d(runs=%d)", s.SpilledBytes, s.SpillRuns)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// Engine executes physical plans.
type Engine struct {
	// DOP is the degree of parallelism (number of partitions/goroutines).
	DOP int
	// Sources maps source operator names to their data.
	Sources map[string]record.DataSet

	// LegacyShuffle routes ShipPartition through the pre-batching
	// record-at-a-time sender instead of the batched one. Retained only so
	// regression tests and benchmarks can compare the two paths. The legacy
	// path predates batching, combining, and spilling, so setting it also
	// disables pre-shuffle aggregation and out-of-core grouping — exactly
	// what a baseline should do.
	LegacyShuffle bool

	// Transport moves the bytes of non-forward shipping steps (partition
	// shuffles and broadcasts). Nil means transport.Channel{} — the
	// in-process transport, which reproduces the engine's original
	// channel-based shuffle byte for byte. Installing a transport.TCP
	// places shuffle partitions on flowworker processes instead; the
	// engine's routing, batching, byte accounting, and output bytes are
	// identical either way (pinned by the distributed equivalence suite).
	// The transport is borrowed, not owned: Close it yourself after the
	// last run (internal/jobs tears its per-job transports down this way).
	Transport transport.Transport

	// MemoryBudget caps the resident bytes (record wire encoding, the same
	// unit as ShippedBytes) that shuffle receivers feeding a grouping or
	// join operator (Reduce, CoGroup, Match) may buffer, summed across the
	// operator's partitions; each of the DOP partitions gets an equal share
	// (split again across both inputs when two sides shuffle), floored at
	// one batch's worth so a tiny budget cannot degenerate into one run per
	// arriving batch. On overflow a partition sorts its buffer by the
	// operator's key and spills it to disk as a sorted run, and the local
	// strategy switches to external sort-merge execution over the merged
	// runs. Zero (the default) disables spilling: everything stays in
	// memory.
	MemoryBudget int

	// SpillDir is where spill files are created; empty means the OS temp
	// directory. Files are unlinked as soon as the operator that wrote them
	// finishes.
	SpillDir string

	// FS is the filesystem the spill path creates, writes, and reads its
	// temp files through; nil means the real OS filesystem. Fault-injection
	// harnesses install a faultfs.Injector here to fire disk faults at
	// exact operation indices (see internal/faultfs and the chaos suite).
	FS faultfs.FS

	// Trace, when set, receives one span per executed operator with child
	// spans for its ship/combine/spill-write/merge/local phases and — on
	// transports that report per-worker traffic — per-worker transport
	// spans carrying bytes and frame counts. Spans are recorded at
	// operator granularity, never per record, so tracing costs a handful
	// of mutex acquisitions per operator. Nil (the default) disables
	// tracing; every hook reduces to a nil check. The scheduler installs
	// a per-job trace here and clears it on engine reset.
	Trace *obs.Trace

	// TraceParent is the span operator spans attach under — the job's
	// "run" phase span when the scheduler drives the engine. Zero attaches
	// them to the trace root.
	TraceParent obs.SpanID

	// Hists, when set, receives histogram observations from the execution
	// paths: per-operator ship wall time and per-run spill sizes. The
	// histograms are shared and scheduler-owned (they survive engine
	// resets); nil disables observation.
	Hists *obs.EngineHists

	// NetBandwidth simulates a cluster interconnect: when positive, every
	// non-forward shipping step takes at least shippedBytes/NetBandwidth
	// seconds of wall time. The paper's evaluation ran on 1 GbE, where
	// shuffles dominate plan runtimes; on a single machine, channel-based
	// shuffles are far faster relative to UDF work, so throttling restores
	// the testbed's cost balance (see DESIGN.md). Zero disables throttling.
	//
	// Deprecated: the simulation only makes sense for the in-process
	// channel transport, where no real interconnect exists. Runs on any
	// other transport measure their bandwidth at calibration time instead
	// (transport.Transport.Calibrate feeds the optimizer's NetProfile), and
	// RunContext rejects a positive NetBandwidth there — simulating a
	// network on top of a real one would double-count the cost. It stays
	// honored for channel-transport runs so the examples and EXPERIMENTS
	// baselines remain reproducible.
	NetBandwidth float64

	interp *tac.Interp
}

// New returns an engine with the given parallelism and no network
// throttling.
func New(dop int) *Engine {
	if dop < 1 {
		dop = 1
	}
	return &Engine{DOP: dop, Sources: map[string]record.DataSet{}, interp: tac.NewInterp()}
}

// WithNetBandwidth sets the simulated interconnect bandwidth in bytes per
// second and returns the engine.
//
// Deprecated: see Engine.NetBandwidth — the simulation is only valid on
// the default channel transport, and RunContext returns an error when a
// positive NetBandwidth meets any other transport. New code should let the
// transport's measured calibration drive network costs instead.
func (e *Engine) WithNetBandwidth(bytesPerSec float64) *Engine {
	e.NetBandwidth = bytesPerSec
	return e
}

// WithTransport installs the transport that non-forward shipping runs over
// and returns the engine. The engine borrows the transport; the caller
// closes it after the last run.
func (e *Engine) WithTransport(t transport.Transport) *Engine {
	e.Transport = t
	return e
}

// transport returns the engine's transport seam, defaulting to the
// in-process channel transport.
func (e *Engine) transport() transport.Transport {
	if e.Transport != nil {
		return e.Transport
	}
	return transport.Channel{}
}

// WithMemoryBudget caps the resident bytes of grouping shuffle receivers
// (see MemoryBudget) and returns the engine.
func (e *Engine) WithMemoryBudget(bytes int) *Engine {
	e.MemoryBudget = bytes
	return e
}

// fs returns the engine's filesystem seam, defaulting to the real OS.
func (e *Engine) fs() faultfs.FS {
	if e.FS != nil {
		return e.FS
	}
	return faultfs.OS{}
}

// AddSource registers the data of a named source operator.
func (e *Engine) AddSource(name string, data record.DataSet) {
	e.Sources[name] = data
}

// Run executes a physical plan and returns the sink's output and runtime
// statistics.
func (e *Engine) Run(plan *optimizer.PhysPlan) (record.DataSet, *RunStats, error) {
	return e.RunContext(context.Background(), plan)
}

// RunContext is Run under a context: cancellation and deadlines propagate
// cooperatively into the execution layer — shuffle senders stop routing,
// spill collectors stop writing runs (spill files already on disk are
// removed before the call returns), and the per-partition local loops bail
// out — so a cancelled run returns promptly with ctx's error instead of
// finishing the plan. A run that completes before the context is cancelled
// returns its result normally. The engine may be reused after a cancelled
// run; partial outputs are discarded.
func (e *Engine) RunContext(ctx context.Context, plan *optimizer.PhysPlan) (record.DataSet, *RunStats, error) {
	if e.NetBandwidth > 0 {
		if kind := e.transport().Kind(); kind != transport.KindChannel {
			return nil, nil, fmt.Errorf("engine: NetBandwidth simulation is only valid on the %q transport (the %q transport measures its real bandwidth at calibration; simulating one on top would double-count)", transport.KindChannel, kind)
		}
	}
	stats := &RunStats{}
	out, err := e.exec(ctx, plan, stats)
	if err != nil {
		return nil, nil, err
	}
	return out.Flatten(), stats, nil
}

// exec runs one plan node through the engine's single operator frame:
// execute the inputs, ship each one (forward, broadcast, the legacy
// baseline, or one call to the shuffle executor), throttle, record the ship
// phase, then run the local strategy. Chained Maps are the one exception —
// they fuse into their producer's loop (execChain) — and a combinable
// Reduce runs the same frame with its fused Map chain and combiner moved
// into the shuffle's senders.
func (e *Engine) exec(ctx context.Context, p *optimizer.PhysPlan, stats *RunStats) (Partitioned, error) {
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	// Chained Maps are fused into their producer's partition loop instead
	// of materializing each intermediate stage.
	if isChainable(p) {
		return e.execChain(ctx, p, stats)
	}

	// Execute inputs first (post-order). A combinable Reduce executes only
	// the base below the maximal chain of Maps feeding it: the chain runs
	// inside the combining senders (Map → combine → ship in one pass, no
	// intermediate partitions).
	op := p.Op
	nodes := p.Inputs
	var comb *combiner
	if e.isCombinableReduce(p) {
		chain, base := chainBelow(p.Inputs[0])
		comb = &combiner{chain: chain, op: op}
		nodes = []*optimizer.PhysPlan{base}
	}
	inputs := make([]Partitioned, len(nodes))
	for i, in := range nodes {
		d, err := e.exec(ctx, in, stats)
		if err != nil {
			return nil, err
		}
		inputs[i] = d
	}

	st := OpStats{Name: op.Name}
	for _, in := range inputs {
		st.InRecords += in.Records()
	}

	tr := e.Trace
	opSpan := tr.Begin(e.TraceParent, op.Name, obs.KindOp)
	fail := func(phase obs.SpanID, err error) (Partitioned, error) {
		if phase != 0 { // 0 is the trace root: no phase span was opened
			tr.Fail(phase, err)
		}
		tr.Fail(opSpan, err)
		return nil, err
	}

	// The ship phase span only opens when some input actually moves
	// (non-forward), so source/forward operators don't accrete empty phase
	// spans.
	ships := p.Ship[:min(len(p.Ship), len(inputs))]
	var shipSpan obs.SpanID
	if slices.ContainsFunc(ships, func(s optimizer.Shipping) bool { return s != optimizer.ShipForward }) {
		if comb != nil {
			shipSpan = tr.Begin(opSpan, "combine-ship", obs.KindCombine)
		} else {
			shipSpan = tr.Begin(opSpan, "ship", obs.KindShip)
		}
	}
	budget := e.partitionBudget(p)
	spills := make([][]partitionSpill, len(inputs))
	defer func() {
		for _, sps := range spills {
			closeSpills(sps)
		}
	}()
	shipStart := time.Now()
	for i, s := range ships {
		var keys []int
		if i < len(op.Keys) {
			keys = op.Keys[i]
		}
		sh, err := e.ship(ctx, shipSpan, inputs[i], s, keys, budget, comb)
		st.ShippedBytes += sh.bytes
		if err != nil {
			return fail(shipSpan, err)
		}
		inputs[i], spills[i] = sh.parts, sh.spills
	}
	// A cancelled ship may return partial partitions; discard them rather
	// than let a truncated input masquerade as the operator's real input.
	if err := context.Cause(ctx); err != nil {
		return fail(shipSpan, err)
	}
	if e.NetBandwidth > 0 && st.ShippedBytes > 0 {
		want := time.Duration(float64(st.ShippedBytes) / e.NetBandwidth * float64(time.Second))
		netDelay(ctx, want-time.Since(shipStart))
	}
	// A fused chain's Maps and the Reduce split the combining ship's wall
	// time evenly (execChain's attribution rule); the Reduce keeps the
	// remainder as its ShipTime. Without a chain the share is all of it.
	shipElapsed := time.Since(shipStart)
	var chain []*optimizer.PhysPlan
	if comb != nil {
		chain = comb.chain
		st.InRecords, st.CombinerCalls = comb.totals()
	}
	share := shipElapsed / time.Duration(len(chain)+1)
	st.ShipTime = shipElapsed - share*time.Duration(len(chain))
	for _, sps := range spills {
		for i := range sps {
			st.SpilledBytes += sps[i].bytes
			st.SpillRuns += len(sps[i].runs)
		}
	}
	if shipSpan != 0 {
		tr.EndWith(shipSpan, func(s *obs.Span) {
			s.Bytes = int64(st.ShippedBytes)
			s.Calls = int64(st.CombinerCalls)
		})
	}
	e.observeShip(&st)
	for _, sps := range spills {
		e.foldSpillSpans(opSpan, sps)
	}

	localSpan := tr.Begin(opSpan, "local", obs.KindLocal)
	localStart := time.Now()
	out, calls, err := e.local(ctx, p, inputs, spills)
	if err != nil {
		return fail(localSpan, err)
	}
	st.LocalTime = time.Since(localStart)
	st.UDFCalls = calls
	st.OutRecords = out.Records()
	e.mergeSpan(localSpan, localStart, &st)
	tr.EndWith(localSpan, func(s *obs.Span) { s.Calls = int64(calls) })
	if comb != nil {
		e.recordChain(chain, comb.levels, shipStart, share, "fused into combining senders", stats)
	}
	tr.EndWith(opSpan, func(s *obs.Span) {
		s.Records = int64(st.OutRecords)
		s.Bytes = int64(st.ShippedBytes)
		s.Calls = int64(st.CombinerCalls)
		s.Runs = int64(st.SpillRuns)
	})
	stats.PerOp = append(stats.PerOp, st)
	return out, nil
}

// shipped is one input after its shipping step: the reshaped partitions,
// the bytes that crossed the network seam, and — after a shuffle — every
// target partition's spill state (no runs when the partition stayed
// resident). The spill files belong to the caller until closeSpills.
type shipped struct {
	parts  Partitioned
	spills []partitionSpill
	bytes  int
}

// ship moves a partitioned data set according to the shipping strategy.
// Partitioning is one call to the shuffle executor (or the retained legacy
// baseline — the single place that branch lives); broadcasting replicates
// through the engine's transport; forwarding is the identity. The byte
// count is meaningful even alongside an error (partial transfers count
// what they accounted before failing).
func (e *Engine) ship(ctx context.Context, parent obs.SpanID, in Partitioned, s optimizer.Shipping, keys []int, budget int, comb *combiner) (shipped, error) {
	switch s {
	case optimizer.ShipPartition:
		if e.LegacyShuffle {
			out, bytes := e.shuffleRecordAtATime(in, keys)
			return shipped{parts: out, bytes: bytes}, nil
		}
		return e.shuffle(ctx, parent, in, keys, budget, comb)
	case optimizer.ShipBroadcast:
		// Every partition gets its own copy of the record headers (the
		// records themselves are immutable by engine convention). Handing the
		// same slice to all DOP partitions would let any local strategy that
		// sorts its input in place race against its sibling goroutines. The
		// transport owns the copying: remote placements genuinely cross the
		// wire, the channel transport clones headers in-process, and both
		// account the full wire size once per copy.
		copies, bytes, err := e.transport().Broadcast(ctx, in.Flatten(), e.DOP)
		if err != nil {
			return shipped{bytes: bytes}, fmt.Errorf("engine: broadcast: %w", err)
		}
		return shipped{parts: Partitioned(copies), bytes: bytes}, nil
	default:
		return shipped{parts: in}, nil
	}
}

// Shuffle hash-partitions a partitioned data set by the key fields into
// e.DOP partitions and returns the reshaped data plus the number of bytes
// that crossed the network seam. It is the primitive behind ShipPartition,
// exposed so tests and benchmarks can drive it directly; its receivers are
// unbounded, so it never spills.
func (e *Engine) Shuffle(in Partitioned, keys []int) (Partitioned, int, error) {
	sh, err := e.ship(context.Background(), e.TraceParent, in, optimizer.ShipPartition, keys, unbounded, nil)
	return sh.parts, sh.bytes, err
}

// unbounded is the per-partition budget of receivers that may keep their
// whole partition resident: collect never exceeds it, so it never spills.
const unbounded = math.MaxInt

// shuffle is the engine's one shuffle executor: it hash-partitions records
// by the key fields over the engine's transport, one sender goroutine per
// source partition and one collector per target, and nests a "shuffle"
// span (with per-worker transport spans) under parent. Two inputs vary:
//
//   - the sender: with comb nil, shuffleSend routes the records as they
//     are; otherwise combineSendCols runs comb's fused Map chain and
//     partially aggregates every per-target batch before flushing it.
//   - the per-partition budget (see partitionBudget): collect tracks
//     resident bytes against it and sorts-and-spills overflow as a run;
//     unbounded receivers never spill.
//
// Records move in batch units rather than one at a time, which amortizes
// per-transfer synchronization across ~1k records. Batches are
// sync.Pool-recycled and carry their running encoded size, so byte
// accounting needs no second pass over the records — and happens
// engine-side before Send, so the shipped bytes are identical whichever
// transport carries the batch. See DESIGN.md.
//
// Cancellation: the senders poll the context and stop routing, the
// collectors stop buffering, and a context.AfterFunc closes the session so
// a sender or collector blocked inside the transport (a full socket, a dead
// peer) is unblocked with an error instead of hanging. On any error the
// executor unlinks the partial spill files and returns no partitions.
func (e *Engine) shuffle(ctx context.Context, parent obs.SpanID, in Partitioned, keys []int, budget int, comb *combiner) (shipped, error) {
	dop := e.DOP
	sh, err := e.transport().OpenShuffle(ctx, transport.Spec{Senders: len(in), Targets: dop})
	if err != nil {
		return shipped{}, fmt.Errorf("engine: shuffle: %w", err)
	}
	stop := context.AfterFunc(ctx, func() { sh.Close() })
	defer stop()
	defer sh.Close()
	var span obs.SpanID
	var spanStart time.Time
	if e.Trace != nil {
		spanStart = time.Now()
		span = e.Trace.Begin(parent, "shuffle", obs.KindShip)
	}
	st := &shuffleState{sh: sh, keys: keys, sendErrs: make([]error, len(in)), recvErrs: make([]error, dop)}
	st.senders.Add(len(in))
	st.collectors.Add(dop)
	// One flat accumulator array for all senders; sender si owns the
	// per-target window [si*dop, (si+1)*dop).
	sizeHint := 0
	if comb == nil {
		acc := make([]*record.Batch, len(in)*dop)
		for si, part := range in {
			go shuffleSend(ctx, st, si, acc[si*dop:(si+1)*dop], part)
		}
		// Pre-size each unbounded output partition for a near-uniform key
		// distribution; skewed keys just fall back to append growth. A
		// bounded receiver holds at most its budget, and a combined stream's
		// size depends on the key distribution, so those start empty.
		if budget == unbounded {
			sizeHint = in.Records()/dop + in.Records()/(8*dop) + 16
		}
	} else {
		comb.levels = make([][]opCount, len(in))
		comb.fold = make([]opCount, len(in))
		acc := make([]*record.ColBatch, len(in)*dop)
		for si, part := range in {
			comb.levels[si] = make([]opCount, len(comb.chain))
			go e.combineSendCols(ctx, st, si, acc[si*dop:(si+1)*dop], part, comb)
		}
	}
	out := make(Partitioned, dop)
	spills := make([]partitionSpill, dop)
	for i := range dop {
		go e.collect(ctx, st, out, &spills[i], i, budget, sizeHint)
	}
	st.senders.Wait()
	st.collectors.Wait()
	bytes := int(st.bytes.Load())
	if e.Trace != nil {
		e.foldWireSpans(span, sh, spanStart)
	}
	if err := st.firstErr(spills); err != nil {
		closeSpills(spills)
		if cause := context.Cause(ctx); cause != nil {
			err = cause
		} else {
			err = fmt.Errorf("engine: shuffle: %w", err)
		}
		e.Trace.Fail(span, err)
		return shipped{bytes: bytes}, err
	}
	if e.Trace != nil {
		e.Trace.EndWith(span, func(s *obs.Span) {
			s.Bytes = int64(bytes)
			s.Records = int64(in.Records())
		})
	}
	return shipped{parts: out, spills: spills, bytes: bytes}, nil
}

// shuffleState is the shared coordination state of one shuffle execution,
// allocated once so sender and collector goroutines share a single object.
type shuffleState struct {
	sh         transport.Shuffle
	keys       []int
	senders    sync.WaitGroup
	collectors sync.WaitGroup
	bytes      atomic.Int64
	sendErrs   []error // one slot per sender, written before senders.Done
	recvErrs   []error // one slot per target, written before collectors.Done
}

// firstErr returns the first sender, collector or spill error after both
// wait groups have drained.
func (st *shuffleState) firstErr(spills []partitionSpill) error {
	for _, err := range st.sendErrs {
		if err != nil {
			return err
		}
	}
	for _, err := range st.recvErrs {
		if err != nil {
			return err
		}
	}
	for i := range spills {
		if spills[i].err != nil {
			return spills[i].err
		}
	}
	return nil
}

// shuffleSend hash-routes one source partition's records into per-target
// batches, handing each batch to the transport session when full. On
// cancellation the sender stops routing and recycles its accumulated
// batches; in-flight batches are drained by the collectors (a target's
// stream only ends at EOS or a transport error), so cancellation can never
// deadlock the session — the caller detects the cancelled context and
// discards the partial output. A Send error is terminal for the sender: it
// records the error and lets SenderDone (deferred) terminate its streams.
func shuffleSend(ctx context.Context, st *shuffleState, si int, acc []*record.Batch, part []record.Record) {
	defer st.senders.Done()
	defer st.sh.SenderDone()
	local := 0
	defer func() { st.bytes.Add(int64(local)) }()
	dop := uint64(len(st.recvErrs))
	var tick ticker
	for _, r := range part {
		if tick.due() && ctx.Err() != nil {
			dropBatches(acc)
			return
		}
		t := int(r.Hash(st.keys) % dop)
		b := acc[t]
		if b == nil {
			b = record.GetBatch()
			acc[t] = b
		}
		if b.Append(r) {
			local += b.EncodedSize()
			acc[t] = nil
			if err := st.sh.Send(t, b); err != nil {
				st.sendErrs[si] = err
				dropBatches(acc)
				return
			}
		}
	}
	// Flush the partial tail batches (always non-empty: a batch is only
	// allocated on first append).
	for t, b := range acc {
		if b != nil {
			local += b.EncodedSize()
			acc[t] = nil
			if err := st.sh.Send(t, b); err != nil {
				st.sendErrs[si] = err
				dropBatches(acc)
				return
			}
		}
	}
}

// dropBatches recycles a sender's unsent accumulator batches.
func dropBatches(acc []*record.Batch) {
	for t, b := range acc {
		if b != nil {
			record.PutBatch(b)
			acc[t] = nil
		}
	}
}

// netDelay sleeps for d to simulate interconnect transfer time, returning
// early when the context is cancelled so a throttled run still cancels
// promptly.
func netDelay(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// collect is the shuffle's one collector: it drains target partition i's
// stream from the transport session into the output (pre-sized to sizeHint
// records), recycling the batches, and tracks the buffer's resident bytes
// (wire encoding, the unit MemoryBudget is expressed in). When they exceed
// the per-partition budget it sorts the buffer by key and writes it to the
// partition's spill file as one run; an unbounded budget never spills.
//
// The budget is floored at one batch's worth (the largest batch the
// collector has buffered so far): the integer division splitting
// MemoryBudget across DOP×inputs truncates a tiny budget to zero, and an
// unfloored zero share would spill every arriving batch as its own sorted
// run — a run count proportional to the batch count and a merge cursor per
// run, instead of the intended handful of budget-sized runs. With the
// floor, a run always covers more than one arriving batch, so the
// worst-case residency is about two batches' worth. The buffer's backing
// array is reused across runs (cleared first, so the truncated tail does
// not pin the spilled records against GC — the resident-bytes bound must
// count live records only).
//
// On a disk error or cancellation the collector keeps draining (senders
// must never block) but discards the drained records — the run is doomed
// and buffering its remainder would grow residency without bound in exactly
// the memory-constrained setting spilling exists for; the error surfaces
// from the executor. A Recv error is different: it is terminal for the stream
// (the transport guarantees no more data follows, and any blocked sender is
// failed by the same transport error, not unblocked by this collector), so
// the collector records it and exits.
func (e *Engine) collect(ctx context.Context, st *shuffleState, out Partitioned, sp *partitionSpill, i, budget, sizeHint int) {
	defer st.collectors.Done()
	buf := make([]record.Record, 0, sizeHint)
	resident := 0
	maxBatch := 0
	for {
		b, recvErr := st.sh.Recv(i)
		if recvErr != nil {
			st.recvErrs[i] = recvErr
			break
		}
		if b == nil {
			break
		}
		// One cancellation check per ~1k-record batch is cheap.
		if sp.err == nil {
			sp.err = context.Cause(ctx)
		}
		if sp.err != nil {
			record.PutBatch(b)
			continue
		}
		buf = append(buf, b.Records()...)
		resident += b.EncodedSize()
		maxBatch = max(maxBatch, b.EncodedSize())
		record.PutBatch(b)
		if resident <= max(budget, maxBatch) || len(buf) == 0 {
			continue
		}
		writeAt := time.Now()
		if sp.writeStart.IsZero() {
			sp.writeStart = writeAt
		}
		e.sortRecs(buf, st.keys)
		if sp.file == nil {
			if sp.file, sp.err = spill.CreateIn(e.fs(), e.SpillDir); sp.err != nil {
				continue
			}
		}
		run, err := sp.file.WriteRun(buf)
		if err != nil {
			sp.err = err
			continue
		}
		sp.runs = append(sp.runs, run)
		sp.bytes += int(run.Length)
		sp.writeDur += time.Since(writeAt)
		if e.Hists != nil {
			e.Hists.SpillRunBytes.Observe(float64(run.Length))
		}
		clear(buf)
		buf = buf[:0]
		resident = 0
	}
	out[i] = buf
}

// isChainable reports whether the engine may fuse this plan node into its
// producer's partition loop: a Map annotated Chained by the physical
// optimizer, fed by a local forward (no repartitioning in between).
// Handcrafted plans without the annotation keep the stage-at-a-time path.
func isChainable(p *optimizer.PhysPlan) bool {
	return p.Chained && p.Op.Kind == dataflow.KindMap && p.Op.UDF != nil &&
		len(p.Inputs) == 1 && len(p.Ship) == 1 && p.Ship[0] == optimizer.ShipForward
}

// chainBelow collects the maximal run of chained Map plan nodes starting at
// p (walking producer-wards while isChainable holds) and returns the run in
// execution (producer-first) order together with the pipeline breaker below
// it. Both fused executions — execChain and the combining senders of a
// combinable Reduce — share it so the notion of "maximal chain" cannot
// diverge.
func chainBelow(p *optimizer.PhysPlan) ([]*optimizer.PhysPlan, *optimizer.PhysPlan) {
	var chain []*optimizer.PhysPlan
	node := p
	for isChainable(node) {
		chain = append(chain, node)
		node = node.Inputs[0]
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, node
}

// chainFeed builds one goroutine's entry point into the fused Map chain:
// one reusable MapRunner and one emit closure per chain level, so the
// steady-state loop allocates nothing per record beyond the records the
// UDFs emit. The feed tallies exact per-level counts and cascades every
// record leaving the chain into sink (the chained-Map executor's sink
// appends to the output partition; the combining shuffle senders' sink
// routes into per-target accumulators). UDF errors carry operator-name
// wrapping; sink errors pass through unwrapped.
func (e *Engine) chainFeed(chain []*optimizer.PhysPlan, c []opCount, sink func(record.Record) error) (func(record.Record) error, error) {
	feed := sink
	for level := len(chain) - 1; level >= 0; level-- {
		op := chain[level].Op
		runner, err := e.interp.NewMapRunner(op.UDF)
		if err != nil {
			return nil, fmt.Errorf("engine: %s: %w", op.Name, err)
		}
		next := feed
		cl := &c[level]
		name := op.Name
		onEmit := func(r record.Record) error {
			cl.out++
			return next(r)
		}
		feed = func(r record.Record) error {
			cl.in++
			cl.calls++
			if err := runner.Invoke(r, onEmit); err != nil {
				if inner, ok := tac.AsEmitError(err); ok {
					return inner
				}
				return fmt.Errorf("engine: %s: %w", name, err)
			}
			return nil
		}
	}
	return feed, nil
}

// execChain executes a maximal run of chained Map operators (p is the
// topmost) fused into a single per-partition loop. Records flow through the
// whole chain one at a time; only the final output is materialized, so a
// chain of k Maps allocates no intermediate partitions. Per-operator
// statistics are still collected: records in/out and UDF calls exactly, and
// the fused loop's wall time attributed evenly across the chain's operators.
func (e *Engine) execChain(ctx context.Context, p *optimizer.PhysPlan, stats *RunStats) (Partitioned, error) {
	chain, node := chainBelow(p)
	base, err := e.exec(ctx, node, stats)
	if err != nil {
		return nil, err
	}

	counts := make([][]opCount, len(base))
	start := time.Now()
	out, _, err := perPartitionIdx(len(base), func(i int) ([]record.Record, int, error) {
		counts[i] = make([]opCount, len(chain))
		var part []record.Record
		feed, err := e.chainFeed(chain, counts[i], func(r record.Record) error {
			part = append(part, r)
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		var tick ticker
		for _, r := range base[i] {
			if tick.due() && context.Cause(ctx) != nil {
				return nil, 0, context.Cause(ctx)
			}
			if err := feed(r); err != nil {
				return nil, 0, err
			}
		}
		return part, 0, nil
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	e.recordChain(chain, counts, start, elapsed/time.Duration(len(chain)), "fused chain", stats)
	return out, nil
}

// recordChain appends the OpStats of a fused Map chain — exact per-level
// counts summed over the fused loop's goroutines, and one share of the
// loop's wall time each as LocalTime — and, when tracing, one span per
// operator: the shares tile the loop's interval from start in chain order.
func (e *Engine) recordChain(chain []*optimizer.PhysPlan, counts [][]opCount, start time.Time, share time.Duration, detail string, stats *RunStats) {
	spanAt := start
	for level, cp := range chain {
		st := OpStats{Name: cp.Op.Name, LocalTime: share}
		for _, c := range counts {
			st.InRecords += c[level].in
			st.OutRecords += c[level].out
			st.UDFCalls += c[level].calls
		}
		stats.PerOp = append(stats.PerOp, st)
		if e.Trace != nil {
			e.Trace.Import(e.TraceParent, obs.Span{
				Name:    cp.Op.Name,
				Kind:    obs.KindOp,
				Start:   spanAt,
				End:     spanAt.Add(share),
				Records: int64(st.OutRecords),
				Calls:   int64(st.UDFCalls),
				Detail:  detail,
			})
			spanAt = spanAt.Add(share)
		}
	}
}

// local runs the operator's local strategy on every partition in parallel.
// A partition whose shuffle receiver spilled runs executes the external
// sort-merge variant of the strategy over its runs plus its resident
// remainder; every other partition runs fully in memory. Both emit the
// engine's canonical order, so the choice is invisible in the output.
func (e *Engine) local(ctx context.Context, p *optimizer.PhysPlan, inputs []Partitioned, spills [][]partitionSpill) (Partitioned, int, error) {
	op := p.Op
	switch op.Kind {
	case dataflow.KindSource:
		data, ok := e.Sources[op.Name]
		if !ok {
			return nil, 0, fmt.Errorf("engine: no data registered for source %q", op.Name)
		}
		return e.scatter(data), 0, nil

	case dataflow.KindSink:
		return inputs[0], 0, nil

	case dataflow.KindMap:
		in := inputs[0]
		return perPartitionIdx(len(in), func(i int) ([]record.Record, int, error) {
			var out []record.Record
			calls := 0
			var tick ticker
			for _, r := range in[i] {
				if tick.due() && context.Cause(ctx) != nil {
					return nil, 0, context.Cause(ctx)
				}
				res, err := e.interp.InvokeMap(op.UDF, r)
				if err != nil {
					return nil, 0, fmt.Errorf("engine: %s: %w", op.Name, err)
				}
				calls++
				out = append(out, res...)
			}
			return out, calls, nil
		})

	case dataflow.KindReduce:
		in, keys := inputs[0], op.Keys[0]
		return perPartitionIdx(len(in), func(i int) ([]record.Record, int, error) {
			if sp := spilledAt(spills[0], i); sp != nil {
				return e.reduceMerged(ctx, op, in[i], sp, keys)
			}
			return e.reducePartition(ctx, op, in[i], keys, p.Local == optimizer.LocalSortGroup)
		})

	case dataflow.KindMatch, dataflow.KindCoGroup:
		l, r := inputs[0], inputs[1]
		lKeys, rKeys := op.Keys[0], op.Keys[1]
		return perPartitionIdx(max(len(l), len(r)), func(i int) ([]record.Record, int, error) {
			lp, rp := partAt(l, i), partAt(r, i)
			lsp, rsp := spilledAt(spills[0], i), spilledAt(spills[1], i)
			if op.Kind == dataflow.KindMatch && lsp == nil && rsp == nil {
				return e.joinPartition(ctx, p, lp, rp)
			}
			// A CoGroup, or a Match with a spilled side: align the two
			// sides' ascending key-group streams, each grouped in memory or
			// merged from its runs.
			lc, err := e.sideGroups(lp, lsp, lKeys)
			if err != nil {
				return nil, 0, err
			}
			rc, err := e.sideGroups(rp, rsp, rKeys)
			if err != nil {
				return nil, 0, err
			}
			if op.Kind == dataflow.KindMatch {
				return e.matchAligned(ctx, op, lc, rc, lKeys, rKeys)
			}
			return e.coGroupAligned(ctx, op, lc, rc, lKeys, rKeys)
		})

	case dataflow.KindCross:
		l, r := inputs[0], inputs[1]
		return perPartitionIdx(max(len(l), len(r)), func(i int) ([]record.Record, int, error) {
			var out []record.Record
			calls := 0
			var tick ticker
			for _, lr := range partAt(l, i) {
				for _, rr := range partAt(r, i) {
					if tick.due() && context.Cause(ctx) != nil {
						return nil, 0, context.Cause(ctx)
					}
					res, err := e.interp.InvokeBinary(op.UDF, lr, rr)
					if err != nil {
						return nil, 0, fmt.Errorf("engine: %s: %w", op.Name, err)
					}
					calls++
					out = append(out, res...)
				}
			}
			return out, calls, nil
		})

	default:
		return nil, 0, fmt.Errorf("engine: cannot execute %s", op.Kind)
	}
}

// reducePartition groups one fully resident partition (canonical ascending
// key order; see groupRecords) and applies the Reduce UDF once per group —
// the local phase's strategy for every partition that did not spill.
func (e *Engine) reducePartition(ctx context.Context, op *dataflow.Operator, part []record.Record, keys []int, sortBased bool) ([]record.Record, int, error) {
	groups := groupRecords(part, keys, sortBased)
	var out []record.Record
	calls := 0
	var tick ticker
	for _, g := range groups {
		if tick.due() && context.Cause(ctx) != nil {
			return nil, 0, context.Cause(ctx)
		}
		res, err := e.interp.InvokeReduce(op.UDF, g)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: %s: %w", op.Name, err)
		}
		calls++
		out = append(out, res...)
	}
	return out, calls, nil
}

// scatter round-robins source data across partitions.
func (e *Engine) scatter(data record.DataSet) Partitioned {
	out := make(Partitioned, e.DOP)
	for i, r := range data {
		t := i % e.DOP
		out[t] = append(out[t], r)
	}
	return out
}

// perPartitionIdx runs fn for every partition index in [0, n) concurrently
// and sums the UDF calls the partitions report; the first error in
// partition order wins.
func perPartitionIdx(n int, fn func(i int) ([]record.Record, int, error)) (Partitioned, int, error) {
	out := make(Partitioned, n)
	calls := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], calls[i], errs[i] = fn(i)
		}()
	}
	wg.Wait()
	total := 0
	for i := range n {
		if errs[i] != nil {
			return nil, 0, errs[i]
		}
		total += calls[i]
	}
	return out, total, nil
}

// partAt returns partition i of p, or nil past its end: two-input operators
// pair partitions by index, and one side may have fewer.
func partAt(p Partitioned, i int) []record.Record {
	if i < len(p) {
		return p[i]
	}
	return nil
}

// joinPartition executes a Match on one partition pair with the plan's
// local strategy. Both strategies emit the engine's canonical join order —
// equal-key cross products in ascending key order, left records major and
// in arrival order, right records minor and in arrival order — mirroring
// how groupRecords canonicalizes sort- and hash-based grouping: the merge
// join reaches it by stably sorting both sides in place, the hash join by
// hash-grouping both sides and ordering the group heads. Key equality is
// record.Value.Compare-based for both, the same semantics grouping and the
// merge join always had (the seed's hash join probed with exact equality,
// the one place the engine diverged). A plan therefore produces
// byte-identical output whichever local strategy runs it, and — because
// the external merge join that partitions with a spilled side run
// (join_spill.go) yields the same order by construction — whether or not
// any partition overflowed the memory budget.
//
// The in-place sort relies on the engine's partition-ownership rule: every
// plan-node execution materializes fresh output partitions for its single
// consumer (exec re-executes shared subplans, scatter copies source
// headers, and broadcast hands every partition its own slice), so no
// defensive copy is needed. If subplan results are ever cached and shared
// across consumers, forwarded inputs must be copied here again.
func (e *Engine) joinPartition(ctx context.Context, p *optimizer.PhysPlan, l, r []record.Record) ([]record.Record, int, error) {
	op := p.Op
	lKeys, rKeys := op.Keys[0], op.Keys[1]
	var lc, rc groupCursor
	if p.Local == optimizer.LocalMergeJoin {
		e.sortRecs(l, lKeys)
		e.sortRecs(r, rKeys)
		lc = &sortedGroupCursor{recs: l, keys: lKeys}
		rc = &sortedGroupCursor{recs: r, keys: rKeys}
	} else { // LocalHashJoin (BuildSide only steers the cost model now)
		lc = &memGroupCursor{groups: groupRecords(l, lKeys, false)}
		rc = &memGroupCursor{groups: groupRecords(r, rKeys, false)}
	}
	return e.matchAligned(ctx, op, lc, rc, lKeys, rKeys)
}

// groupRecords groups a partition by key fields, either by sorting (one
// stable sort of the whole partition) or via a hash map (one hash pass plus
// a sort of the group heads). Both emit groups in ascending key order with
// records in arrival order within a group — the engine's canonical group
// order, which the external sort-merge grouping of the spill path produces
// by construction; a plan therefore yields the same output whether or not
// any partition overflowed the memory budget (see DESIGN.md). Key
// projections are computed once per record (decorate-sort-undecorate), not
// per comparison.
func groupRecords(part []record.Record, keys []int, sortBased bool) [][]record.Record {
	if len(part) == 0 {
		return nil
	}
	type keyed struct {
		key record.Record
		rec record.Record
	}
	ks := make([]keyed, len(part))
	for i, r := range part {
		ks[i] = keyed{key: r.Project(keys), rec: r}
	}
	if sortBased {
		sort.SliceStable(ks, func(i, j int) bool { return ks[i].key.Compare(ks[j].key) < 0 })
		var groups [][]record.Record
		start := 0
		for i := 1; i <= len(ks); i++ {
			if i == len(ks) || ks[i].key.Compare(ks[start].key) != 0 {
				g := make([]record.Record, 0, i-start)
				for _, k := range ks[start:i] {
					g = append(g, k.rec)
				}
				groups = append(groups, g)
				start = i
			}
		}
		return groups
	}
	// Hash-based: bucket by key hash with collision safety (a bucket may
	// hold several true key groups, told apart by key comparison), then
	// order the groups — not the records — by key.
	type group struct {
		key  record.Record
		recs []record.Record
	}
	var groups []group
	buckets := map[uint64][]int{}
	for _, k := range ks {
		h := k.key.Hash(nil)
		gi := -1
		for _, idx := range buckets[h] {
			if groups[idx].key.Compare(k.key) == 0 {
				gi = idx
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, group{key: k.key})
			buckets[h] = append(buckets[h], gi)
		}
		groups[gi].recs = append(groups[gi].recs, k.rec)
	}
	sort.SliceStable(groups, func(i, j int) bool { return groups[i].key.Compare(groups[j].key) < 0 })
	out := make([][]record.Record, len(groups))
	for i, g := range groups {
		out[i] = g.recs
	}
	return out
}
