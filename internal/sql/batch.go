package sql

// Batched execution: a batch runs through the statement pipeline
// (session.go) like a single statement — one shard-lock round over the
// union of its targets and one group-commit fsync wait instead of one of
// each per statement — and its results are byte-identical to running the
// statements one at a time on one session:
//
//   - Statements are routed, then executed, strictly in order; a failed
//     statement fills its error slot and the batch continues. Routing up
//     front still sees an earlier partition-column rewrite, as it does
//     when the statements arrive one at a time.
//   - Locking coarsens only the granularity, never the order: concurrent
//     sessions interleave between batches instead of between statements.
//   - Every mutation's WAL records are appended under the locks before any
//     durability wait runs, so one flusher pass covers the whole batch.
//   - A maximal run of consecutive broadcast SELECTs, or of broadcast
//     UPDATE/DELETEs, goes to scatterSelect or scatterWrite as one run,
//     the scatter path's run form: one par.RunCells, each shard executing
//     the run in statement order. Reads and writes never share a run: a
//     SELECT merges after its whole run ran, so a write in the run could
//     be observed too early.

import "rcnvm/internal/shard"

// Run kinds: a statement joins a run only when it broadcasts to every
// shard and its per-shard work is independent of the other shards (plain
// SELECTs; UPDATE/DELETE). Everything else — point statements, joins,
// INSERT (sequential global-id assignment), DDL, EXPLAIN — is a run of
// one.
type groupKind uint8

const (
	groupNone groupKind = iota
	groupRead
	groupWrite
)

func classifyGroup(c *shard.Cluster, s *stmt) groupKind {
	if len(s.targets) != c.N() {
		return groupNone
	}
	switch st := s.st.(type) {
	case *Select:
		if st.JoinTable != "" {
			return groupNone
		}
		return groupRead
	case *Update, *Delete:
		return groupWrite
	}
	return groupNone
}

// runEnd returns the end of the run that starts at parsed statement i:
// the maximal same-kind stretch for a broadcast read or write, i+1 for
// anything else. Statements that failed to parse execute nothing and do
// not break a run.
func runEnd(c *shard.Cluster, stmts []stmt, i int) int {
	j := i + 1
	if k := classifyGroup(c, &stmts[i]); k != groupNone {
		for j < len(stmts) && (stmts[j].st == nil || classifyGroup(c, &stmts[j]) == k) {
			j++
		}
	}
	return j
}

// ExecBatchSharded executes srcs in order against the cluster as one pass
// of the statement pipeline: route every statement in order, lock the
// union of their targets once, execute in order with grouped fan-outs,
// unlock, then run every durability wait. results[i]/errs[i] mirror what
// Execute(srcs[i]) with the plan cache would have returned on a single
// session issuing the statements sequentially.
func ExecBatchSharded(c *shard.Cluster, pc *PlanCache, srcs []string) (results []*Result, errs []error) {
	stmts := make([]stmt, len(srcs))
	for i, src := range srcs {
		stmts[i].src = src
	}
	execute(c, stmts, ExecOptions{Plans: pc})
	results = make([]*Result, len(srcs))
	errs = make([]error, len(srcs))
	for i := range stmts {
		results[i], errs[i] = stmts[i].res, stmts[i].err
	}
	return results, errs
}
