package engine

import (
	"context"
	"fmt"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
)

// opCount tallies one operator's exact record movement inside a fused loop
// (chained Maps, combining senders): records in, records out, UDF calls.
type opCount struct{ in, out, calls int }

// combiner is the state of one combining shuffle: the maximal chain of
// Maps fused into the senders, the Reduce whose combiner each sender
// applies to every per-target batch before flushing it, and one tally per
// sender (each sender goroutine owns its index).
type combiner struct {
	chain  []*optimizer.PhysPlan
	op     *dataflow.Operator
	levels [][]opCount // per sender: the fused chain's per-level counts
	fold   []opCount   // per sender: records entering the accumulators (in) and combiner invocations (calls)
}

// totals sums the senders' tallies: the records that entered the combining
// accumulators (the Reduce's logical input) and the combiner invocations.
func (c *combiner) totals() (in, calls int) {
	for _, f := range c.fold {
		in += f.in
		calls += f.calls
	}
	return in, calls
}

// isCombinableReduce reports whether the engine may run this Reduce through
// the combining senders: a KindReduce annotated Combinable by the physical
// optimizer, shuffled via ShipPartition, with a combiner attached.
// Handcrafted plans without the annotation — and engines running the legacy
// record-at-a-time shuffle, which has no batch to combine — keep the plain
// sender, exactly like Chained.
func (e *Engine) isCombinableReduce(p *optimizer.PhysPlan) bool {
	return !e.LegacyShuffle && p.Combinable &&
		p.Op.Kind == dataflow.KindReduce && p.Op.Combiner != nil &&
		len(p.Inputs) == 1 && len(p.Ship) == 1 && p.Ship[0] == optimizer.ShipPartition
}

// combineSendCols is the combining sender: every base record runs through
// the fused Map chain, and the chain's outputs accumulate into per-target
// ColBatches — typed column arrays with dictionary-coded strings — with the
// routing hash computed once and cached per row, so the grouping pass
// inside CombineInto never re-hashes. Each sender therefore ships at most
// one record per (group key, target) per flush window. The combined output
// is flushed into a fresh pooled record.Batch and handed to the transport
// session, so the collectors are the same as for uncombined records, and
// under a budget every spilled run consists of already partially
// aggregated records.
func (e *Engine) combineSendCols(ctx context.Context, st *shuffleState, si int, acc []*record.ColBatch, part []record.Record, comb *combiner) {
	defer st.senders.Done()
	defer st.sh.SenderDone()
	dop := uint64(len(st.recvErrs))
	keys, fold := st.keys, &comb.fold[si]
	local := 0
	defer func() { st.bytes.Add(int64(local)) }()

	flush := func(t int, cb *record.ColBatch) error {
		out := record.GetBatch()
		calls, err := cb.CombineInto(keys, out, func(g record.ColGroup) ([]record.Record, error) {
			return e.interp.InvokeReduceSource(comb.op.Combiner, g)
		})
		record.PutColBatch(cb)
		if err != nil {
			record.PutBatch(out)
			return fmt.Errorf("engine: %s combiner: %w", comb.op.Name, err)
		}
		fold.calls += calls
		local += out.EncodedSize()
		return st.sh.Send(t, out)
	}
	route := func(r record.Record) error {
		fold.in++
		h := r.Hash(keys)
		t := int(h % dop)
		cb := acc[t]
		if cb == nil {
			cb = record.GetColBatch()
			acc[t] = cb
		}
		if cb.AppendWithHash(r, keys, h) {
			acc[t] = nil
			return flush(t, cb)
		}
		return nil
	}
	fail := func(err error) {
		st.sendErrs[si] = err
		dropColBatches(acc)
	}
	feed, err := e.chainFeed(comb.chain, comb.levels[si], route)
	if err != nil {
		fail(err)
		return
	}
	var tick ticker
	for _, r := range part {
		if tick.due() && context.Cause(ctx) != nil {
			fail(context.Cause(ctx))
			return
		}
		if err := feed(r); err != nil {
			fail(err)
			return
		}
	}
	// Flush the partial tail batches (always non-empty: a batch is only
	// allocated on first append).
	for t, cb := range acc {
		if cb != nil {
			acc[t] = nil
			if err := flush(t, cb); err != nil {
				fail(err)
				return
			}
		}
	}
}

// dropColBatches returns a failed sender's accumulated ColBatches to the
// pool, mirroring dropBatches on the row path.
func dropColBatches(acc []*record.ColBatch) {
	for t, cb := range acc {
		if cb != nil {
			acc[t] = nil
			record.PutColBatch(cb)
		}
	}
}
