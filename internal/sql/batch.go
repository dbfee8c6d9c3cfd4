package sql

// Batched execution: a batch of statements executes with one shard-lock
// round and one group-commit fsync wait instead of one of each per
// statement, and consecutive broadcast statements ship to the shards as
// whole sub-batches in a single fan-out. Results are byte-identical to
// running the same statements one at a time on one session:
//
//   - Statements execute strictly in order; a failed statement fills its
//     error slot and the batch continues, exactly as a session issuing
//     the next statement after an error would.
//
//   - Lock amortization coarsens only the lock GRANULARITY, never the
//     execution order: the batch takes every shard's statement lock once
//     (read mode when every statement is read-only, exclusive otherwise)
//     where the unbatched path would take per-statement, per-target
//     locks. Concurrent sessions interleave between batches instead of
//     between statements — the same statement-granularity atomicity,
//     batch-wide.
//
//   - Routing decisions are made sequentially before execution, so a
//     partition-column rewrite earlier in the batch disables point
//     routing for later statements exactly as it does when the
//     statements arrive one at a time.
//
//   - WAL amortization: every mutation's records are appended (under the
//     exclusive locks) before ANY durability wait runs, so the per-shard
//     flusher's next sync pass covers the whole batch — one fsync per
//     batch per shard under -fsync always, not one per statement.
//
//   - Grouped fan-out: maximal runs of consecutive broadcast SELECTs, or
//     of broadcast UPDATE/DELETEs, execute in ONE par.RunCells fan-out
//     where each shard runs the run's sub-batch in statement order.
//     Reads and writes never share a group: a grouped SELECT's merge
//     projects rows out of shard memory after the whole group ran, so a
//     write in the same group could be observed too early. Each shard
//     executes group members in statement order, so per-shard effects
//     and the per-shard WAL record order equal the sequential schedule.

import (
	"context"

	"rcnvm/internal/par"
	"rcnvm/internal/shard"
)

// Batch group kinds: a statement joins a grouped fan-out only when it
// broadcasts to every shard and its per-shard work is independent of the
// other shards (plain SELECTs; UPDATE/DELETE). Everything else — point
// queries, joins, INSERT (sequential global-id assignment), DDL, EXPLAIN
// — dispatches on its own.
type groupKind uint8

const (
	groupNone groupKind = iota
	groupRead
	groupWrite
)

func classifyGroup(c *shard.Cluster, st Statement, targets []int) groupKind {
	if c.N() == 1 || len(targets) != c.N() {
		// One shard has nothing to fan out (and dispatchSharded's 1-shard
		// case, unlike the grouped runners, needs no registry).
		return groupNone
	}
	switch s := st.(type) {
	case *Select:
		if s.JoinTable != "" {
			return groupNone
		}
		return groupRead
	case *Update, *Delete:
		return groupWrite
	}
	return groupNone
}

// ExecBatchSharded executes stmts in order against the cluster: route
// every statement in order, lock all shards once, execute in order with
// grouped fan-outs, unlock, then run every durability wait — one lock
// round and one group-commit wait for the whole batch. results[i]/errs[i]
// mirror what ExecSharded(stmts[i]) would have returned on a single
// session issuing the statements sequentially. On a 1-shard cluster every
// statement dispatches on its own (nothing to fan out).
func ExecBatchSharded(c *shard.Cluster, pc *PlanCache, stmts []string) (results []*Result, errs []error) {
	n := len(stmts)
	results = make([]*Result, n)
	errs = make([]error, n)
	sts := make([]Statement, n)
	targets := make([][]int, n)
	kinds := make([]groupKind, n)
	exclusive := false
	any := false
	for i, src := range stmts {
		st, err := pc.Parse(src)
		if err != nil {
			errs[i] = err
			continue
		}
		sts[i] = st
		any = true
		// Routed in statement order: MarkUnstable side effects from an
		// earlier statement must shape later routing exactly as they do
		// when statements arrive one at a time.
		t, ex := route(c, st, false)
		targets[i] = t
		kinds[i] = classifyGroup(c, st, t)
		if ex {
			exclusive = true
		}
	}
	if !any {
		return results, errs
	}

	waits := make([][]func() error, n)
	unlock := lockShards(c, allShards(c), exclusive)
	func() {
		defer unlock() // panic-safe; the normal path returns through here
		i := 0
		for i < n {
			if sts[i] == nil {
				i++
				continue
			}
			if kinds[i] == groupNone {
				var w []func() error
				results[i], w, errs[i] = dispatchSharded(c, sts[i], stmts[i], targets[i])
				waits[i] = w
				i++
				continue
			}
			// Maximal same-kind run; parse-error slots execute nothing and
			// cannot break a group.
			j := i + 1
			for j < n && (sts[j] == nil || kinds[j] == kinds[i]) {
				j++
			}
			var members []int
			for k := i; k < j; k++ {
				if sts[k] != nil {
					members = append(members, k)
				}
			}
			if kinds[i] == groupRead {
				runGroupedSelects(c, sts, members, results, errs)
			} else {
				runGroupedMutations(c, sts, stmts, members, results, errs, waits)
			}
			i = j
		}
	}()

	for i := range waits {
		if werr := awaitAll(waits[i]); werr != nil && errs[i] == nil {
			results[i], errs[i] = nil, werr
		}
	}
	return results, errs
}

// runGroupedSelects executes a run of broadcast SELECTs in one fan-out:
// each shard runs every member in statement order into per-member partial
// slots, then each member merges (locks still held — merges read shard
// memory). A shard-local failure of one member does not stop the shard's
// later members, matching the sequential schedule.
func runGroupedSelects(c *shard.Cluster, sts []Statement, members []int, results []*Result, errs []error) {
	parts := make([][]selPartial, len(members))
	for m := range parts {
		parts[m] = make([]selPartial, c.N())
	}
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(sh int) error {
		for m, idx := range members {
			parts[m][sh] = fanOutPartial(c, sh, sts[idx].(*Select))
		}
		return nil
	})
	for m, idx := range members {
		results[idx], errs[idx] = mergeSelect(sts[idx].(*Select), parts[m])
	}
}

// runGroupedMutations executes a run of broadcast UPDATE/DELETEs in one
// fan-out and then logs each member per shard in statement order — the
// same per-shard WAL record order the sequential schedule produces, with
// each shard's own failure flag, like scatterAffected.
func runGroupedMutations(c *shard.Cluster, sts []Statement, stmts []string, members []int, results []*Result, errs []error, waits [][]func() error) {
	type slot struct {
		res *Result
		err error
	}
	out := make([][]slot, len(members))
	for m := range out {
		out[m] = make([]slot, c.N())
	}
	_ = par.RunCells(context.Background(), c.Workers(), c.N(), func(sh int) error {
		db := c.Shard(sh)
		for m, idx := range members {
			switch s := sts[idx].(type) {
			case *Update:
				out[m][sh].res, out[m][sh].err = runUpdate(db, s)
			case *Delete:
				out[m][sh].res, out[m][sh].err = runDelete(db, s)
			}
		}
		return nil
	})
	logged := c.Shard(0).CommitLog() != nil
	for m, idx := range members {
		unstable := false
		if u, ok := sts[idx].(*Update); ok {
			unstable = updateUnstable(c, u)
		}
		if logged {
			ws := make([]func() error, 0, c.N())
			for sh := 0; sh < c.N(); sh++ {
				if w := logShard(c.Shard(sh), stmts[idx], out[m][sh].err != nil, unstable); w != nil {
					ws = append(ws, w)
				}
			}
			waits[idx] = ws
		}
		total := 0
		var err error
		for sh := 0; sh < c.N(); sh++ {
			if out[m][sh].err != nil {
				err = out[m][sh].err // lowest shard's error wins
				break
			}
			total += out[m][sh].res.Affected
		}
		if err != nil {
			results[idx], errs[idx] = nil, err
		} else {
			results[idx] = &Result{Affected: total}
		}
	}
}
