package engine

import (
	"context"
	"fmt"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/record"
)

// This file extends the out-of-core execution path from grouping to joins:
// a memory-budgeted Match shuffles its hash-partitioned inputs into the
// same budget-tracked receivers as Reduce/CoGroup, and partitions with a
// side that overflowed execute as an external sort-merge join over the
// k-way merge (spill.Merger) of each side's spilled runs plus its sorted
// resident remainder. The alignment is the run-aligned variant of
// joinPartition's equal-key-run cross product: both sides are consumed as
// sorted group streams (groupCursor), unmatched keys are skipped, and equal
// keys emit their cross product in canonical join order — ascending key,
// left records major in arrival order — so a budgeted Match is
// byte-identical to the unlimited run whether zero, some, or all
// partitions spilled. A partition with a spilled side runs the external
// merge whatever the plan's local strategy, mirroring how hash grouping
// falls back to external sort-merge grouping; the others run the plan's
// strategy in memory (joinPartition).

// sortedGroupCursor yields equal-key groups from an already key-sorted
// slice — the in-memory merge join's group stream, sharing the alignment
// code with the spilled and hash-grouped paths without re-bucketing.
type sortedGroupCursor struct {
	recs []record.Record
	keys []int
	pos  int
}

func (c *sortedGroupCursor) next() ([]record.Record, error) {
	if c.pos >= len(c.recs) {
		return nil, nil
	}
	start := c.pos
	for c.pos < len(c.recs) && c.recs[start].CompareOn(c.recs[c.pos], c.keys) == 0 {
		c.pos++
	}
	return c.recs[start:c.pos], nil
}

// matchAligned merges two sorted group streams and emits the cross product
// of every equal-key group pair — the aligner behind both the in-memory
// Match (joinPartition) and the spilled one (Engine.local). Keys present
// on only one side are skipped without a UDF call, which is what separates
// a Match from the CoGroup alignment in coGroupAligned.
func (e *Engine) matchAligned(ctx context.Context, op *dataflow.Operator, l, r groupCursor, lKeys, rKeys []int) ([]record.Record, int, error) {
	var out []record.Record
	calls := 0
	lg, err := l.next()
	if err != nil {
		return nil, 0, err
	}
	rg, err := r.next()
	if err != nil {
		return nil, 0, err
	}
	var tick ticker
	for lg != nil && rg != nil {
		if tick.due() && context.Cause(ctx) != nil {
			return nil, 0, context.Cause(ctx)
		}
		switch c := compareKeyPair(lg[0], lKeys, rg[0], rKeys); {
		case c < 0:
			if lg, err = l.next(); err != nil {
				return nil, 0, err
			}
		case c > 0:
			if rg, err = r.next(); err != nil {
				return nil, 0, err
			}
		default:
			for _, lr := range lg {
				for _, rr := range rg {
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
			if lg, err = l.next(); err != nil {
				return nil, 0, err
			}
			if rg, err = r.next(); err != nil {
				return nil, 0, err
			}
		}
	}
	return out, calls, nil
}
