package sql

// Scatter-gather execution over a shard.Cluster, the routing and dispatch
// half of Execute (session.go): one statement is split into per-shard
// sub-plans, fanned out over the cluster's worker budget, and the partial
// results merged back into a single Result that is byte-identical to what
// the 1-shard baseline produces. A 1-shard cluster is not a separate
// pipeline: a SELECT is the merge of one partial and EXPLAIN is the same
// code at any shard count (scatter_select.go, explain.go); what is left
// are two small cases, route returning shard 0 without consulting the
// registry and dispatchSharded running DDL and DML as a single database
// that logs the statement text.
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

	"rcnvm/internal/engine"
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

func allShards(c *shard.Cluster) []int {
	out := make([]int, c.N())
	for i := range out {
		out[i] = i
	}
	return out
}

// route decides which shards a statement must lock and in which mode.
// Sub-plans of a read-only statement take read locks only when the whole
// statement is read-only and untraced; any mutation (or tracing, whose
// buffer is exclusive DB state) escalates every target to the write lock.
func route(c *shard.Cluster, st Statement, traced bool) (targets []int, exclusive bool) {
	exclusive = traced || !ReadOnly(st)
	if c.N() == 1 {
		// The lone shard owns every row: nothing to route, and a
		// shard.Wrap'd database has no registry to consult.
		return allShards(c), exclusive
	}
	switch s := st.(type) {
	case *Select:
		if s.JoinTable != "" {
			return allShards(c), exclusive
		}
		if i, ok := pointShard(c, s.Table, s.Where); ok {
			return []int{i}, exclusive
		}
		return allShards(c), exclusive
	case *Update:
		// Rewriting the partitioning column breaks "stored key predicts
		// placement" for every row it touches: disable point routing for
		// this table up front (permanently) and broadcast the update —
		// broadcasts stay correct regardless of placement.
		if updateUnstable(c, s) {
			c.MarkUnstable(s.Table)
			return allShards(c), true
		}
		if i, ok := pointShard(c, s.Table, s.Where); ok {
			return []int{i}, true
		}
		return allShards(c), true
	case *Delete:
		if i, ok := pointShard(c, s.Table, s.Where); ok {
			return []int{i}, true
		}
		return allShards(c), true
	case *Explain:
		if !s.Analyze {
			// Plan description reads one schema; shard 0 stands in for all.
			return []int{0}, exclusive
		}
		return allShards(c), true
	default: // CreateTable, Insert: DDL and row routing touch every shard.
		return allShards(c), true
	}
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
// order and returns the matching unlocker.
func lockShards(c *shard.Cluster, targets []int, exclusive bool) (unlock func()) {
	for _, i := range targets {
		if exclusive {
			c.Shard(i).Lock()
		} else {
			c.Shard(i).RLock()
		}
	}
	return func() {
		for j := len(targets) - 1; j >= 0; j-- {
			if exclusive {
				c.Shard(targets[j]).Unlock()
			} else {
				c.Shard(targets[j]).RUnlock()
			}
		}
	}
}

// dispatchSharded executes a routed statement; locks are already held.
// The returned waits are per-shard durability waits the caller must run
// after releasing the locks (nil/empty when nothing was logged).
func dispatchSharded(c *shard.Cluster, st Statement, src string, targets []int) (*Result, []func() error, error) {
	switch s := st.(type) {
	case *Select:
		res, err := scatterSelect(c, s, targets)
		return res, nil, err
	case *Explain:
		// The inner dispatch logs any mutation under the inner statement's
		// own text, printed from the parsed AST (round-trip property):
		// replay must re-execute the mutation, not re-time it.
		return explain(c, s, func() ([]func() error, error) {
			_, waits, err := dispatchSharded(c, s.Stmt, StatementText(s.Stmt), allShards(c))
			return waits, err
		})
	}
	if c.N() == 1 {
		// The lone shard runs DDL and DML as a single database (its row ids
		// are the global ids) and logs the statement's text, so tables
		// created directly on a shard.Wrap'd database stay fully usable.
		db := c.Shard(0)
		res, err := Run(db, st)
		if w := logCommit(db, st, src, err); w != nil {
			return res, []func() error{w}, err
		}
		return res, nil, err
	}
	switch s := st.(type) {
	case *CreateTable:
		return scatterCreate(c, s, src)
	case *Insert:
		return scatterInsert(c, s)
	case *Update:
		return scatterAffected(c, targets, src, updateUnstable(c, s),
			func(db *engine.DB) (*Result, error) { return runUpdate(db, s) })
	case *Delete:
		return scatterAffected(c, targets, src, false,
			func(db *engine.DB) (*Result, error) { return runDelete(db, s) })
	default:
		return nil, nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

func errUnmanaged(table string) error {
	return fmt.Errorf("sql: table %q not managed by the shard cluster", table)
}

// scatterCreate creates the table on every shard and registers it for
// routing. Shard allocators evolve in lockstep (all DDL broadcasts), so
// the shards fail or succeed together; the lowest shard's error wins.
// Every shard logs the statement (with its own failure flag) so replay
// re-creates the table on each shard independently.
func scatterCreate(c *shard.Cluster, s *CreateTable, src string) (*Result, []func() error, error) {
	type slot struct {
		res *Result
		err error
	}
	out := make([]slot, c.N())
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(i int) error {
		out[i].res, out[i].err = runCreate(c.Shard(i), s)
		return nil
	})
	var waits []func() error
	if c.Shard(0).CommitLog() != nil {
		waits = make([]func() error, 0, c.N())
		for i := range out {
			if w := logShard(c.Shard(i), src, out[i].err != nil, false); w != nil {
				waits = append(waits, w)
			}
		}
	}
	for i := range out {
		if out[i].err != nil {
			return nil, waits, out[i].err
		}
	}
	c.Register(s.Name, s.Columns[0].Name, s.Columns[0].Words != 1)
	return out[0].res, waits, nil
}

// scatterInsert appends each row on its hash-owner shard, in statement
// order, assigning global row ids as it goes. Sequential on purpose: a
// mid-statement failure must leave exactly the earlier rows inserted,
// like the single-database path. When commit logs are installed, each
// shard's appended rows accumulate into one insert record carrying the
// assigned global ids — flushed even when the statement fails midway, so
// replay reproduces exactly the rows that landed.
func scatterInsert(c *shard.Cluster, s *Insert) (*Result, []func() error, error) {
	if _, err := lookup(c.Shard(0), s.Table); err != nil {
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
		t, err := lookup(c.Shard(sh), s.Table)
		if err != nil {
			return nil, flush(), err
		}
		local, err := t.Append(row...)
		if err != nil {
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

// scatterAffected broadcasts a mutation and sums the affected counts.
// Every target runs to completion into its own slot, so the merged error
// (lowest shard) is independent of worker scheduling. Each target logs
// the statement with its own failure flag: even a failed target may have
// partial effects, which deterministic replay reproduces.
func scatterAffected(c *shard.Cluster, targets []int, src string, unstable bool, run func(db *engine.DB) (*Result, error)) (*Result, []func() error, error) {
	if len(targets) == 1 {
		db := c.Shard(targets[0])
		res, err := run(db)
		var waits []func() error
		if w := logShard(db, src, err != nil, unstable); w != nil {
			waits = []func() error{w}
		}
		return res, waits, err
	}
	type slot struct {
		res *Result
		err error
	}
	out := make([]slot, len(targets))
	_ = par.RunCells(context.Background(), c.Workers(), len(targets), func(j int) error {
		out[j].res, out[j].err = run(c.Shard(targets[j]))
		return nil
	})
	var waits []func() error
	if c.Shard(targets[0]).CommitLog() != nil {
		waits = make([]func() error, 0, len(targets))
		for j := range out {
			if w := logShard(c.Shard(targets[j]), src, out[j].err != nil, unstable); w != nil {
				waits = append(waits, w)
			}
		}
	}
	total := 0
	for j := range out {
		if out[j].err != nil {
			return nil, waits, out[j].err
		}
		total += out[j].res.Affected
	}
	return &Result{Affected: total}, waits, nil
}
