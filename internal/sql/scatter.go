package sql

// Scatter-gather execution over a shard.Cluster, the routing and dispatch
// half of the statement pipeline (session.go): a statement is split into
// per-shard sub-plans, fanned out over the cluster's worker budget, and the
// partial results merged back into a single Result that is byte-identical
// to what the 1-shard baseline produces. The fan-outs of SELECT and of
// UPDATE/DELETE take a run of statements sharing their targets — a lone
// statement is a run of one, a batch's consecutive broadcasts one longer
// run (batch.go) — and each shard executes the run in statement order. A
// 1-shard cluster is not a separate pipeline: a SELECT is the merge of one
// partial and EXPLAIN is the same code at any shard count
// (scatter_select.go, explain.go); what is left are two small cases, route
// returning shard 0 without consulting the registry and DDL and INSERT
// running as on a single database that logs the statement text.
//
// Routing: a statement whose WHERE pins the partitioning column with an
// equality runs on exactly one shard (all matching rows live there);
// everything else broadcasts. INSERT routes row by row but appends
// sequentially in statement order so global row ids — the merge order of
// every gathered result — follow insertion order exactly as baseline row
// ids do.
//
// Locking: the shards a statement touches are locked in ascending shard
// order (read locks for read-only statements, exclusive otherwise), held
// across sub-plan execution AND the merge (merging plain selects and
// joins projects rows, which reads shard memory). Ascending acquisition
// makes the multi-shard 2PL deadlock-free at statement granularity.
//
// Determinism: fanned-out sub-plans never abort each other — every shard
// runs to completion into its own slot and the merge consumes slots in
// shard order, so results and error values are independent of -workers
// and goroutine scheduling. When several shards fail (possible only with
// fault injection), the lowest shard index's error wins — among a SELECT's
// aggregate items, the earliest failing item's (scatter_select.go).

import (
	"context"
	"fmt"
	"strings"

	"rcnvm/internal/par"
	"rcnvm/internal/shard"
)

// updateUnstable reports whether an UPDATE rewrites its table's
// partitioning column. Recorded in the WAL so recovery re-disables point
// routing for the table exactly as route() did before the crash.
func updateUnstable(c *shard.Cluster, s *Update) bool {
	col, _ := c.PartitionColumn(s.Table)
	if col == "" {
		return false
	}
	for _, set := range s.Sets {
		if strings.EqualFold(set.Column, col) {
			return true
		}
	}
	return false
}

// shard0 is every shard of a 1-shard cluster. Target lists are never
// written, so every statement on one shard shares it.
var shard0 = []int{0}

func allShards(c *shard.Cluster) []int {
	if c.N() == 1 {
		return shard0
	}
	out := make([]int, c.N())
	for i := range out {
		out[i] = i
	}
	return out
}

// route decides which shards a statement must lock and in which mode.
// Sub-plans of a read-only statement take read locks only when the whole
// statement is read-only; any mutation escalates every target to the write
// lock.
func route(c *shard.Cluster, st Statement) (targets []int, exclusive bool) {
	exclusive = !ReadOnly(st)
	if c.N() == 1 {
		// The lone shard owns every row: nothing to route, and a
		// shard.Wrap'd database has no registry to consult.
		return allShards(c), exclusive
	}
	// A statement whose WHERE may pin the partitioning column names its
	// table; the rest — joins, EXPLAIN ANALYZE, DDL and INSERT, whose rows
	// route one by one — touch every shard.
	var table string
	var where []Cond
	switch s := st.(type) {
	case *Select:
		if s.JoinTable == "" {
			table, where = s.Table, s.Where
		}
	case *Update:
		// Rewriting the partitioning column breaks "stored key predicts
		// placement" for every row it touches: disable point routing for
		// this table up front (permanently), so the update broadcasts —
		// broadcasts stay correct regardless of placement.
		if updateUnstable(c, s) {
			c.MarkUnstable(s.Table)
		}
		table, where = s.Table, s.Where
	case *Delete:
		table, where = s.Table, s.Where
	case *Explain:
		if !s.Analyze {
			// Plan description reads one schema; shard 0 stands in for all.
			return []int{0}, exclusive
		}
	}
	if i, ok := pointShard(c, table, where); ok {
		return []int{i}, exclusive
	}
	return allShards(c), exclusive
}

// pointShard reports the single shard that can satisfy a statement whose
// WHERE pins the partitioning column with an equality: the hash placement
// guarantees every matching row lives there, and the remaining conjuncts
// only filter further.
func pointShard(c *shard.Cluster, table string, where []Cond) (int, bool) {
	col, routable := c.PartitionColumn(table)
	if !routable {
		return 0, false
	}
	for _, cond := range where {
		if cond.Op == "=" && strings.EqualFold(cond.Column, col) {
			return c.Partition(cond.Value), true
		}
	}
	return 0, false
}

// lockShards acquires the targets' statement locks in ascending shard
// order; unlockShards releases them in reverse.
func lockShards(c *shard.Cluster, targets []int, exclusive bool) {
	for _, i := range targets {
		if exclusive {
			c.Shard(i).Lock()
		} else {
			c.Shard(i).RLock()
		}
	}
}

func unlockShards(c *shard.Cluster, targets []int, exclusive bool) {
	for j := len(targets) - 1; j >= 0; j-- {
		if exclusive {
			c.Shard(targets[j]).Unlock()
		} else {
			c.Shard(targets[j]).RUnlock()
		}
	}
}

// dispatch executes a run of routed statements with their locks held
// (runEnd picks the run): a run of plain SELECTs or of UPDATE/DELETEs
// fans out once, and a lone one is a run of one; every other statement
// is alone. Each statement's result, error and durability waits land in
// its slot, and a traced statement's accesses in its streams; the waits
// run after the locks are released.
func dispatch(c *shard.Cluster, run []stmt) {
	r := &run[0]
	switch s := r.st.(type) {
	case *Select:
		if s.JoinTable != "" {
			r.res, r.err = scatterJoin(c, s, r.streams)
			return
		}
		scatterSelect(c, run)
	case *Explain:
		r.res, r.waits, r.err = explain(c, s, r.streams)
	case *Insert:
		if c.N() > 1 {
			r.res, r.waits, r.err = scatterInsert(c, s, r.streams)
			return
		}
		scatterWrite(c, run)
	default: // CREATE TABLE, UPDATE, DELETE
		scatterWrite(c, run)
	}
}

// member is what a fan-out's cells read of a run's statement: a copy, so
// the run (a lone statement's is on Execute's stack) stays off the heap.
type member struct {
	st      Statement
	streams shardStreams
}

func errUnmanaged(table string) error {
	return fmt.Errorf("sql: table %q not managed by the shard cluster", table)
}

// scatterInsert appends each row on its hash-owner shard, in statement
// order, assigning global row ids as it goes. Sequential on purpose: a
// mid-statement failure must leave exactly the earlier rows inserted,
// like the single-database path. When commit logs are installed, each
// shard's appended rows accumulate into one insert record carrying the
// assigned global ids — flushed even when the statement fails midway, so
// replay reproduces exactly the rows that landed.
func scatterInsert(c *shard.Cluster, s *Insert, streams shardStreams) (*Result, []func() error, error) {
	if _, err := lookup(c.Shard(0), s.Table, nil); err != nil {
		return nil, nil, err
	}
	if !c.Registered(s.Table) {
		return nil, nil, errUnmanaged(s.Table)
	}
	logged := c.Shard(0).CommitLog() != nil
	var rowsBy [][][]uint64
	var globalsBy [][]int
	if logged {
		rowsBy = make([][][]uint64, c.N())
		globalsBy = make([][]int, c.N())
	}
	flush := func() []func() error {
		if !logged {
			return nil
		}
		var waits []func() error
		for i := 0; i < c.N(); i++ {
			if len(rowsBy[i]) == 0 {
				continue
			}
			wait, err := c.Shard(i).CommitLog().LogInsert(s.Table, rowsBy[i], globalsBy[i])
			switch {
			case err != nil:
				err := err
				waits = append(waits, func() error { return err })
			case wait != nil:
				waits = append(waits, wait)
			}
		}
		return waits
	}
	for ri, row := range s.Rows {
		sh := c.Partition(row[0])
		t, err := lookup(c.Shard(sh), s.Table, streams.sink(sh))
		if err != nil {
			return nil, flush(), err
		}
		local := t.Rows()
		if _, err := t.AppendRows(s.Rows[ri : ri+1]); err != nil {
			return nil, flush(), fmt.Errorf("sql: row %d: %w", ri+1, err)
		}
		g, err := c.Assign(s.Table, sh, local)
		if err != nil {
			return nil, flush(), err
		}
		if logged {
			rowsBy[sh] = append(rowsBy[sh], row)
			globalsBy[sh] = append(globalsBy[sh], g)
		}
	}
	return &Result{Affected: len(s.Rows)}, flush(), nil
}

// scatterWrite runs a run of writes that share their targets: UPDATE/
// DELETEs (a lone one is a run of one), or alone a CREATE TABLE or the
// INSERT of a 1-shard cluster, whose lone shard runs it as a single
// database (its row ids are the global ids). Each target executes the
// members in statement order through Run — several targets in one fan-out,
// every target running to completion into its own slots, so the merged
// error (lowest shard) is independent of worker scheduling. Then each
// member logs its text on every target with that shard's own failure flag
// — even a failed target may have partial effects, which deterministic
// replay reproduces — in statement order, the sequential schedule's
// per-shard WAL record order, and sums the affected counts. A table
// created on several shards is registered for routing (shard allocators
// evolve in lockstep, so the shards fail or succeed together).
func scatterWrite(c *shard.Cluster, run []stmt) {
	type slot struct {
		res *Result
		err error
	}
	targets := run[0].targets
	n := len(targets)
	out := make([]slot, len(run)*n) // member k on target j is out[k*n+j]
	if n == 1 {
		db := c.Shard(targets[0])
		for k := range run {
			if run[k].st != nil { // a parse error inside a run executes nothing
				out[k].res, out[k].err = Run(db, run[k].st, run[k].streams.sink(targets[0]))
			}
		}
	} else {
		members := make([]member, len(run))
		for k := range run {
			members[k] = member{run[k].st, run[k].streams}
		}
		_ = par.RunCells(context.Background(), c.Workers(), n, func(j int) error {
			db := c.Shard(targets[j])
			for k, m := range members {
				if m.st != nil {
					out[k*n+j].res, out[k*n+j].err = Run(db, m.st, m.streams.sink(targets[j]))
				}
			}
			return nil
		})
	}
	for k := range run {
		r := &run[k]
		if r.st == nil {
			continue
		}
		unstable := false
		if u, ok := r.st.(*Update); ok {
			unstable = updateUnstable(c, u)
		}
		mine := out[k*n : (k+1)*n]
		for j, sh := range targets {
			if w := logShard(c.Shard(sh), r.src, mine[j].err != nil, unstable); w != nil {
				r.waits = append(r.waits, w)
			}
		}
		for j, a := range mine {
			if a.err != nil {
				r.res, r.err = nil, a.err // the lowest shard's error wins
				break
			}
			if j == 0 {
				r.res = a.res // the sum lands in the first target's own Result
			} else {
				r.res.Affected += a.res.Affected
			}
		}
		if ct, ok := r.st.(*CreateTable); ok && r.err == nil && n > 1 {
			c.Register(ct.Name, ct.Columns[0].Name, ct.Columns[0].Words != 1)
		}
	}
}
