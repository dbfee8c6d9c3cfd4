package sql

import (
	"fmt"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/obs"
	"rcnvm/internal/shard"
	"rcnvm/internal/trace"
)

// This file is the concurrency boundary of the SQL layer: engine.DB
// carries an RWMutex but its methods do not lock it themselves (see the
// engine.DB doc comment), so every statement that should execute
// atomically against a shared cluster goes through Execute, which holds
// the statement locks of the shards it touches for the whole statement.
// Plain Exec/Run stay unlocked for single-threaded callers.
//
// It is also the durability boundary: when a commit log is installed on
// the shards (engine.DB.SetCommitLog, done by internal/durable), every
// mutating statement is appended to the WAL while the exclusive lock is
// still held — so per-log record order equals commit order — and the
// caller then waits for the fsync AFTER releasing the lock, so concurrent
// statements batch their fsyncs behind the log's single flusher instead
// of serializing on the disk. With no log installed (the default), the
// path below is unchanged: one nil check, no allocation.

// ReadOnly reports whether a statement only reads database state, and may
// therefore run under the shared (read) lock concurrently with other
// readers. EXPLAIN ANALYZE is a writer: it records an access trace, which
// is exclusive state on the DB.
func ReadOnly(st Statement) bool {
	switch s := st.(type) {
	case *Select:
		return true
	case *Explain:
		return !s.Analyze
	default:
		return false
	}
}

// ReadOnlySrc reports whether src parses and is read-only — the shared
// classification clients and routers use to decide whether a statement is
// safe to resend with unknown execution state, or to serve from a read
// replica. Unparseable statements classify as NOT read-only: the server's
// parser may accept what ours rejects, so the conservative answer routes
// them to the primary and never resends them blindly.
func ReadOnlySrc(src string) bool {
	st, err := Parse(src)
	return err == nil && ReadOnly(st)
}

// mutates reports whether a statement changes database state that
// recovery must reproduce. EXPLAIN ANALYZE executes its inner statement,
// so it mutates exactly when the inner statement does.
func mutates(st Statement) bool {
	switch s := st.(type) {
	case *CreateTable, *Insert, *Update, *Delete:
		return true
	case *Explain:
		return s.Analyze && mutates(s.Stmt)
	}
	return false
}

// logShard appends one statement record on db's commit log. Nil-safe and
// allocation-free when no log is installed. An append failure surfaces
// through the returned wait: the statement has already executed, so a
// logging failure is a durability failure, not an execution failure.
func logShard(db *engine.DB, src string, failed, unstable bool) func() error {
	l := db.CommitLog()
	if l == nil {
		return nil
	}
	wait, err := l.LogStatement(src, failed, unstable)
	if err != nil {
		return func() error { return err }
	}
	return wait
}

// logCommit records a mutating statement on a single database's commit
// log (the 1-shard path). Call with the exclusive lock held, immediately
// after Run; execErr marks failed statements so recovery replays their
// partial effects leniently.
func logCommit(db *engine.DB, st Statement, src string, execErr error) func() error {
	if db.CommitLog() == nil || !mutates(st) {
		return nil
	}
	return logShard(db, src, execErr != nil, false)
}

// ExecOptions selects what Execute does around the statement itself. The
// zero value is a plain parse and an unobserved, untraced execution.
type ExecOptions struct {
	// Plans, when non-nil, is consulted for the parse instead of Parse.
	Plans *PlanCache
	// Rec, when non-nil, receives wall-clock phase spans (parse,
	// lock_wait, exec, and wal_wait when something was logged) under
	// obs.ProcQuery on lane TID.
	Rec *obs.Recorder
	TID int64
	// Trace records each locked shard's memory accesses for the statement.
	// The trace buffer is shared DB state, so tracing takes exclusive locks
	// even for SELECTs, and EXPLAIN (which times itself) is rejected.
	Trace bool
}

// Execute is the one statement pipeline: parse, route, lock the target
// shards in the mode the statement requires (read locks for read-only
// statements, so concurrent SELECTs proceed in parallel), run, append
// mutations to the WAL under the lock, unlock, wait for durability. With
// Trace set, streams[i] is shard i's recorded access stream (nil for
// shards the statement never locked); otherwise streams is nil.
func Execute(c *shard.Cluster, src string, o ExecOptions) (*Result, []trace.Stream, error) {
	endParse := o.span("parse")
	st, err := o.Plans.Parse(src)
	endParse()
	if err != nil {
		return nil, nil, err
	}
	if _, ok := st.(*Explain); ok && o.Trace {
		return nil, nil, fmt.Errorf("sql: EXPLAIN already reports timing; run it untraced")
	}
	res, streams, waits, err := runUnderLocks(c, st, src, o)
	// The statement locks are released before waiting for the WAL fsyncs:
	// group commit batches concurrent statements' records behind shared
	// fsyncs, which only helps if the lock is free while waiting.
	if len(waits) > 0 {
		endWal := o.span("wal_wait")
		werr := awaitAll(waits)
		endWal()
		if werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, streams, nil
}

// runUnderLocks is Execute's locked section: route, lock, (start trace,)
// execute and log, (stop trace,) unlock. The last two are deferred, so a
// panic under the lock can neither wedge the shards for later statements
// nor leave access recording on for later read-locked SELECTs to race on.
func runUnderLocks(c *shard.Cluster, st Statement, src string, o ExecOptions) (res *Result, streams []trace.Stream, waits []func() error, err error) {
	targets, exclusive := route(c, st, o.Trace)
	endLockWait := o.span("lock_wait")
	defer lockShards(c, targets, exclusive)()
	endLockWait()
	if o.Trace {
		streams = make([]trace.Stream, c.N())
		for _, i := range targets {
			c.Shard(i).StartTrace()
		}
		defer func() {
			for _, i := range targets {
				streams[i] = c.Shard(i).StopTrace()
			}
		}()
	}
	endExec := o.span("exec")
	res, waits, err = dispatchSharded(c, st, src, targets)
	endExec()
	return res, streams, waits, err
}

// span starts a wall-clock phase span on the recorder and returns the func
// that ends it. Without a recorder it reads no clock and allocates nothing.
func (o ExecOptions) span(name string) (end func()) {
	if o.Rec == nil {
		return func() {}
	}
	start := time.Now()
	return func() { o.Rec.WallSince(obs.ProcQuery, name, obs.CatSQL, o.TID, start) }
}

// awaitAll runs every per-shard durability wait and returns the first
// failure. Call after releasing the statement locks.
func awaitAll(waits []func() error) error {
	var err error
	for _, w := range waits {
		if e := w(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// ExecSharded is Execute with no options: plain parse, no spans, no trace.
func ExecSharded(c *shard.Cluster, src string) (*Result, error) {
	res, _, err := Execute(c, src, ExecOptions{})
	return res, err
}

// ExecShardedCached is ExecSharded with a plan cache consulted for the
// parse (nil = plain Parse).
func ExecShardedCached(c *shard.Cluster, pc *PlanCache, src string) (*Result, error) {
	res, _, err := Execute(c, src, ExecOptions{Plans: pc})
	return res, err
}

// ExecShardedTraced is Execute with per-shard memory-access recording.
func ExecShardedTraced(c *shard.Cluster, src string) (*Result, []trace.Stream, error) {
	return Execute(c, src, ExecOptions{Trace: true})
}
