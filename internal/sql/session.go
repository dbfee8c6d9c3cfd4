package sql

import (
	"fmt"
	"slices"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/obs"
	"rcnvm/internal/shard"
	"rcnvm/internal/trace"
)

// This file is the statement pipeline, the one way a statement or a batch
// reaches a shared cluster: a single statement is a batch of one. It is the
// concurrency boundary of the SQL layer: engine.DB carries an RWMutex but
// its methods do not lock it themselves (see the engine.DB doc comment), so
// the pipeline holds the statement locks of every shard the statements
// touch — one lock round over the union of their targets — while they run.
// Run, the per-shard write step, stays unlocked for the WAL replay.
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
// readers. An EXPLAIN ANALYZE is what it executes: the accesses it captures
// are its own, not state on the DB.
func ReadOnly(st Statement) bool {
	switch s := st.(type) {
	case *Select:
		return true
	case *Explain:
		return !s.Analyze || ReadOnly(s.Stmt)
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
	// Trace records each target shard's memory accesses for the statement
	// into a stream of the statement's own, so a traced statement takes the
	// locks it takes untraced. EXPLAIN (which times itself) is rejected.
	Trace bool
}

// stmt is one statement in the pipeline: its text, its parse and routed
// targets, and what running it produced — the result or error, the
// per-shard durability waits to run once the locks are released, and, for
// a traced statement, each shard's captured access stream.
type stmt struct {
	src     string
	st      Statement // nil when the statement failed to parse
	targets []int
	res     *Result
	err     error
	waits   []func() error
	streams shardStreams // streams[i] is shard i's; nil when untraced
}

// shardStreams are a traced statement's captured access streams.
type shardStreams []trace.Stream

// sink is the stream of shard i, nil when the statement is untraced.
func (ss shardStreams) sink(i int) *trace.Stream {
	if ss == nil {
		return nil
	}
	return &ss[i]
}

// Execute runs one statement as a batch of one: parse, route, lock the
// target shards in the mode the statement requires (read locks for
// read-only statements, so concurrent SELECTs proceed in parallel), run,
// append mutations to the WAL under the lock, unlock, wait for durability.
// With Trace set, streams[i] is shard i's recorded access stream (nil for
// shards the statement never locked); otherwise streams is nil.
func Execute(c *shard.Cluster, src string, o ExecOptions) (*Result, []trace.Stream, error) {
	one := [1]stmt{{src: src}}
	execute(c, one[:], o)
	if one[0].err != nil {
		return nil, nil, one[0].err
	}
	return one[0].res, one[0].streams, nil
}

// execute is the pipeline. It parses and routes every statement in order
// (routing's MarkUnstable side effects shape later routing exactly as when
// the statements arrive one at a time), locks the union of the targets
// once, runs the statements in order under the locks, unlocks, then runs
// every durability wait. A statement that fails to parse fills its error
// and runs nothing. An EXPLAIN ANALYZE is timed between the unlock and the
// waits, so its error comes after the inner statement's and before the
// WAL's.
func execute(c *shard.Cluster, stmts []stmt, o ExecOptions) {
	endParse := o.span("parse")
	for i := range stmts {
		s := &stmts[i]
		s.st, s.err = o.Plans.Parse(s.src)
		if _, ok := s.st.(*Explain); ok && o.Trace {
			s.st, s.err = nil, fmt.Errorf("sql: EXPLAIN already reports timing; run it untraced")
		}
	}
	endParse()
	var lock []int
	exclusive := false
	for i := range stmts {
		s := &stmts[i]
		if s.st == nil {
			continue
		}
		var ex bool
		s.targets, ex = route(c, s.st)
		exclusive = exclusive || ex
		if o.Trace || analyzes(s.st) {
			s.streams = make(shardStreams, c.N())
		}
		lock = union(lock, s.targets)
	}
	if lock == nil {
		return
	}
	runLocked(c, stmts, lock, exclusive, o)
	// The statement locks are released before waiting for the WAL fsyncs:
	// group commit batches concurrent statements' records behind shared
	// fsyncs, which only helps if the lock is free while waiting.
	var endWal func()
	for i := range stmts {
		s := &stmts[i]
		if s.err == nil && analyzes(s.st) {
			analyze(c, s) // reads only the capture, so with the locks released
		}
		if len(s.waits) > 0 && endWal == nil {
			endWal = o.span("wal_wait")
		}
		for _, w := range s.waits {
			if err := w(); err != nil && s.err == nil {
				s.res, s.err = nil, err
			}
		}
	}
	if endWal != nil {
		endWal()
	}
}

// union returns the ascending union of two ascending shard lists. Neither
// input is written, and a list that already holds the other comes back as
// it is.
func union(a, b []int) []int {
	if len(a) < len(b) {
		a, b = b, a
	}
	for _, x := range b {
		if i, found := slices.BinarySearch(a, x); !found {
			a = slices.Insert(slices.Clip(a), i, x)
		}
	}
	return a
}

// runLocked is the pipeline's locked section: lock, run the statements in
// order, unlock. The unlock is deferred, so a panic under the lock cannot
// wedge the shards for later statements.
func runLocked(c *shard.Cluster, stmts []stmt, lock []int, exclusive bool, o ExecOptions) {
	endLockWait := o.span("lock_wait")
	lockShards(c, lock, exclusive)
	defer unlockShards(c, lock, exclusive)
	endLockWait()
	endExec := o.span("exec")
	for i := 0; i < len(stmts); {
		if stmts[i].st == nil {
			i++
			continue
		}
		j := runEnd(c, stmts, i)
		dispatch(c, stmts[i:j])
		i = j
	}
	endExec()
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

// ExecSharded is Execute with no options: plain parse, no spans, no trace.
// It and the two wrappers below remain only for the benchmark module
// (bench/), which compiles against them; everything else calls Execute.
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

// ExecShardedTraced is Execute with each shard's memory accesses captured.
func ExecShardedTraced(c *shard.Cluster, src string) (*Result, []trace.Stream, error) {
	return Execute(c, src, ExecOptions{Trace: true})
}
