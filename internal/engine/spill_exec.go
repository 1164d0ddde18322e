package engine

import (
	"context"
	"fmt"
	"time"

	"blackboxflow/internal/dataflow"
	"blackboxflow/internal/optimizer"
	"blackboxflow/internal/record"
	"blackboxflow/internal/spill"
)

// This file holds the engine's out-of-core state and algorithms: the
// per-partition spill state the shuffle collector (collect) fills when a
// receiver overflows its share of Engine.MemoryBudget, the budget split
// itself, and external sort-merge execution over the merged runs — grouping
// for Reduce and CoGroup, and (join_spill.go) the external merge join for
// Match — which the local phase runs for partitions that spilled. The
// invariant that makes spilling transparent is canonical order: in-memory
// grouping (groupRecords) and joining (joinPartition) and the external
// merges all emit key groups in ascending key order with records in arrival
// order inside a group, so a plan produces byte-identical output whether
// zero, some, or all partitions overflowed. See DESIGN.md ("Memory model &
// spilling").

// partitionSpill is one target partition's overflow state: the spill file
// (created lazily on first overflow), the sorted runs written so far, and
// the disk bytes they occupy (run framing included).
type partitionSpill struct {
	file  *spill.File
	runs  []spill.Run
	bytes int
	err   error

	// Write-phase locals for the trace: when the first run is written and
	// how much wall time the sort+write passes took in total. Accumulated
	// collector-locally (each collector owns its partitionSpill) and folded
	// into one pre-timed spill-write span per partition at operator end
	// (Engine.foldSpillSpans) — the hot loop never touches the trace.
	writeStart time.Time
	writeDur   time.Duration
}

// closeSpills releases the spill files of one shuffle's partitions.
func closeSpills(spills []partitionSpill) {
	for i := range spills {
		if spills[i].file != nil {
			spills[i].file.Close()
		}
	}
}

// spilledAt returns partition i's spill state when its receiver wrote runs,
// else nil — the partition is fully resident (or its input was not
// shuffled at all).
func spilledAt(spills []partitionSpill, i int) *partitionSpill {
	if i < len(spills) && len(spills[i].runs) > 0 {
		return &spills[i]
	}
	return nil
}

// partitionBudget is the share of MemoryBudget each shuffle receiver of p
// may keep resident: a grouping or join operator (Reduce, CoGroup, Match)
// under a budget splits it evenly across its DOP partitions and its
// hash-partitioned inputs (collect floors the share at one batch's worth).
// Every other shuffle, and every shuffle under no budget, is unbounded and
// never spills. Forward-shipped inputs are already resident in the
// producer's partitions, so there is no receiver to bound; broadcast sides
// are replicated rather than shuffled and stay fully resident — the
// optimizer's spill term prices that residency, but the engine does not yet
// spill it. The legacy record-at-a-time shuffle predates spilling and never
// reaches a budgeted receiver.
func (e *Engine) partitionBudget(p *optimizer.PhysPlan) int {
	switch p.Op.Kind {
	case dataflow.KindReduce, dataflow.KindCoGroup, dataflow.KindMatch:
	default:
		return unbounded
	}
	shuffled := 0
	for _, s := range p.Ship {
		if s == optimizer.ShipPartition {
			shuffled++
		}
	}
	if e.MemoryBudget <= 0 || shuffled == 0 {
		return unbounded
	}
	return e.MemoryBudget / (e.DOP * shuffled)
}

// reduceMerged applies the Reduce UDF group-at-a-time over the k-way merge
// of a partition's spilled runs and its sorted resident remainder. Cursor
// order — oldest run first, remainder last — together with the merger's
// index tie-break reproduces arrival order within each key group, matching
// what a fully resident stable grouping would have seen.
func (e *Engine) reduceMerged(ctx context.Context, op *dataflow.Operator, resident []record.Record, sp *partitionSpill, keys []int) ([]record.Record, int, error) {
	cursors := make([]spill.Cursor, 0, len(sp.runs)+1)
	for _, run := range sp.runs {
		cursors = append(cursors, sp.file.OpenRun(run))
	}
	e.sortRecs(resident, keys)
	cursors = append(cursors, spill.NewSliceCursor(resident))
	cmp := func(a, b record.Record) int { return a.CompareOn(b, keys) }
	m, err := spill.NewMerger(cursors, cmp)
	if err != nil {
		return nil, 0, err
	}
	var out []record.Record
	calls := 0
	var group []record.Record
	flush := func() error {
		if len(group) == 0 {
			return nil
		}
		res, err := e.interp.InvokeReduce(op.UDF, group)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", op.Name, err)
		}
		calls++
		out = append(out, res...)
		group = nil
		return nil
	}
	var tick ticker
	for {
		if tick.due() && context.Cause(ctx) != nil {
			return nil, 0, context.Cause(ctx)
		}
		rec, ok, err := m.Next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		if len(group) > 0 && cmp(group[0], rec) != 0 {
			if err := flush(); err != nil {
				return nil, 0, err
			}
		}
		group = append(group, rec)
	}
	if err := flush(); err != nil {
		return nil, 0, err
	}
	return out, calls, nil
}

// groupCursor yields key groups in ascending key order; next returns nil at
// end of stream. It is the unit the co-group alignment consumes, letting an
// in-memory side and a spilled side pair up transparently.
type groupCursor interface {
	next() ([]record.Record, error)
}

// memGroupCursor iterates pre-built groups (groupRecords output).
type memGroupCursor struct {
	groups [][]record.Record
	pos    int
}

func (c *memGroupCursor) next() ([]record.Record, error) {
	if c.pos >= len(c.groups) {
		return nil, nil
	}
	g := c.groups[c.pos]
	c.pos++
	return g, nil
}

// mergeGroupCursor accumulates equal-key groups from a sorted record merge.
type mergeGroupCursor struct {
	m       *spill.Merger
	keys    []int
	peek    record.Record
	hasPeek bool
	done    bool
}

func (c *mergeGroupCursor) next() ([]record.Record, error) {
	if c.done {
		return nil, nil
	}
	if !c.hasPeek {
		rec, ok, err := c.m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.done = true
			return nil, nil
		}
		c.peek = rec
		c.hasPeek = true
	}
	group := []record.Record{c.peek}
	c.hasPeek = false
	for {
		rec, ok, err := c.m.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			c.done = true
			return group, nil
		}
		if group[0].CompareOn(rec, c.keys) != 0 {
			c.peek = rec
			c.hasPeek = true
			return group, nil
		}
		group = append(group, rec)
	}
}

// sideGroups builds one CoGroup or spilled-Match side's group stream: fully
// in memory (sort-based grouping) when sp is nil, external sort-merge over
// the side's runs plus its sorted resident remainder otherwise.
func (e *Engine) sideGroups(part []record.Record, sp *partitionSpill, keys []int) (groupCursor, error) {
	if sp == nil || len(sp.runs) == 0 {
		return &memGroupCursor{groups: groupRecords(part, keys, true)}, nil
	}
	cursors := make([]spill.Cursor, 0, len(sp.runs)+1)
	for _, run := range sp.runs {
		cursors = append(cursors, sp.file.OpenRun(run))
	}
	e.sortRecs(part, keys)
	cursors = append(cursors, spill.NewSliceCursor(part))
	m, err := spill.NewMerger(cursors, func(a, b record.Record) int { return a.CompareOn(b, keys) })
	if err != nil {
		return nil, err
	}
	return &mergeGroupCursor{m: m, keys: keys}, nil
}

// compareKeyPair orders a left-side record against a right-side record by
// their respective key fields, position by position.
func compareKeyPair(l record.Record, lKeys []int, r record.Record, rKeys []int) int {
	for i := range lKeys {
		if c := l.Field(lKeys[i]).Compare(r.Field(rKeys[i])); c != 0 {
			return c
		}
	}
	return 0
}

// coGroupAligned merges two sorted group streams and calls the CoGroup UDF
// once per key in the combined key domain, ascending — the CoGroup's local
// strategy, whether its sides group in memory or merge from spilled runs.
func (e *Engine) coGroupAligned(ctx context.Context, op *dataflow.Operator, l, r groupCursor, lKeys, rKeys []int) ([]record.Record, int, error) {
	var out []record.Record
	calls := 0
	emit := func(lg, rg []record.Record) error {
		res, err := e.interp.InvokeCoGroup(op.UDF, lg, rg)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", op.Name, err)
		}
		calls++
		out = append(out, res...)
		return nil
	}
	lg, err := l.next()
	if err != nil {
		return nil, 0, err
	}
	rg, err := r.next()
	if err != nil {
		return nil, 0, err
	}
	var tick ticker
	for lg != nil || rg != nil {
		if tick.due() && context.Cause(ctx) != nil {
			return nil, 0, context.Cause(ctx)
		}
		var c int
		switch {
		case rg == nil:
			c = -1
		case lg == nil:
			c = 1
		default:
			c = compareKeyPair(lg[0], lKeys, rg[0], rKeys)
		}
		switch {
		case c < 0:
			if err := emit(lg, nil); err != nil {
				return nil, 0, err
			}
			if lg, err = l.next(); err != nil {
				return nil, 0, err
			}
		case c > 0:
			if err := emit(nil, rg); err != nil {
				return nil, 0, err
			}
			if rg, err = r.next(); err != nil {
				return nil, 0, err
			}
		default:
			if err := emit(lg, rg); err != nil {
				return nil, 0, err
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
