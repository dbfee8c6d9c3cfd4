package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// RecoveryStats summarizes one startup recovery.
type RecoveryStats struct {
	Epoch      uint64        // checkpoint epoch recovered from
	Checkpoint bool          // a checkpoint was loaded (epoch > 1)
	Records    int           // WAL records replayed across all shards
	TornBytes  int64         // bytes truncated off torn final-segment tails
	Elapsed    time.Duration // wall time for the whole recovery
}

// Recover rebuilds the cluster's pre-crash state from the data directory
// and attaches the store to it: load the current epoch's checkpoint (if
// one exists) into every shard plus the row registry, replay each shard's
// WAL tail, then open the logs for appending and install the commit-log
// hook on every shard database. The cluster must be fresh (no tables);
// after Recover returns, it is serving-ready and every new mutation is
// logged.
//
// A torn record at the very end of a shard's final segment is the crash
// point: it is truncated away and recovery succeeds without it (the
// statement was never acknowledged — its fsync had not completed).
// Anything else structurally wrong (a corrupt record, a torn record
// mid-log, a missing segment) aborts recovery with an error.
func (s *Store) Recover(c *shard.Cluster) (RecoveryStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return RecoveryStats{}, errLogClosed
	}
	if s.cluster != nil {
		return RecoveryStats{}, fmt.Errorf("durable: store already attached to a cluster")
	}
	if c.N() != s.n {
		return RecoveryStats{}, fmt.Errorf("durable: data dir holds %d shards, cluster has %d", s.n, c.N())
	}
	start := time.Now()
	stats := RecoveryStats{Epoch: s.epoch}

	// Checkpoint first: shard snapshots, then the registry that indexes
	// them. Epoch 1 predates any checkpoint — shards start empty.
	if raw, err := os.ReadFile(s.registryPath(s.epoch)); err == nil {
		stats.Checkpoint = true
		var st shard.RegistryState
		if err := readFramedGob(raw, &st); err != nil {
			return stats, fmt.Errorf("durable: registry checkpoint: %w", err)
		}
		if err := c.RestoreRegistry(st); err != nil {
			return stats, err
		}
	} else if !os.IsNotExist(err) {
		return stats, fmt.Errorf("durable: %w", err)
	}
	for i := 0; i < s.n; i++ {
		path := s.checkpointPath(i, s.epoch)
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			if stats.Checkpoint {
				return stats, fmt.Errorf("durable: registry checkpoint exists but %s is missing", filepath.Base(path))
			}
			continue
		}
		if err != nil {
			return stats, fmt.Errorf("durable: %w", err)
		}
		if !stats.Checkpoint {
			f.Close()
			return stats, fmt.Errorf("durable: shard checkpoint %s exists without a registry checkpoint", filepath.Base(path))
		}
		err = c.Shard(i).Load(f)
		f.Close()
		if err != nil {
			return stats, fmt.Errorf("durable: shard %d checkpoint: %w", i, err)
		}
	}

	// Replay each shard's WAL tail and reopen its last segment for
	// appending at the validated offset.
	logs := make([]*Log, s.n)
	for i := 0; i < s.n; i++ {
		lastIdx, lastSize, recs, bytes, err := s.replayShard(c, i, &stats)
		if err != nil {
			return stats, err
		}
		logs[i], err = openLog(s.shardDir(i), s.epoch, lastIdx, lastSize,
			s.opts.Fsync, s.opts.SegmentBytes, s.counters)
		if err != nil {
			for _, l := range logs[:i] {
				l.Close()
			}
			return stats, err
		}
		// Seed the epoch-cumulative totals from the replayed tail so
		// replication-lag accounting survives primary restarts.
		logs[i].seedTotals(recs, bytes)
	}
	for i := 0; i < s.n; i++ {
		c.Shard(i).SetCommitLog(&shardHook{log: logs[i]})
	}
	s.logs = logs
	s.cluster = c
	stats.Elapsed = time.Since(start)
	s.counters.Add(CtrRecoveryReplayed, int64(stats.Records))
	s.counters.Add(CtrRecoveryTornBytes, stats.TornBytes)
	s.counters.Add(CtrRecoveryNanos, stats.Elapsed.Nanoseconds())
	return stats, nil
}

// replayShard replays shard i's current-epoch segments in index order and
// returns the index and validated byte length of the final segment (1 and
// 0 when the shard has no segments yet), plus the shard's replayed record
// count and cumulative validated bytes across all segments — the seeds for
// the log's epoch totals.
func (s *Store) replayShard(c *shard.Cluster, i int, stats *RecoveryStats) (lastIdx int, lastSize int64, recs, bytes int64, err error) {
	paths, idxs, err := s.sortedSegments(i)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	if len(paths) == 0 {
		return 1, 0, 0, 0, nil
	}
	for j, idx := range idxs {
		// Segments are born 1, 2, 3... within an epoch, so the final one is
		// len(paths); a gap means a segment of acknowledged records is gone.
		if idx != j+1 {
			return 0, 0, 0, 0, fmt.Errorf("durable: shard %d: wal segment %d missing (found segment %d)", i, j+1, idx)
		}
	}
	for j, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("durable: %w", err)
		}
		off, nrecs, err := ApplyFrames(raw, func(rec Record) error { return Apply(c, i, rec) })
		if j == len(paths)-1 && errors.Is(err, ErrTorn) {
			// The crash point: a record written partially and never
			// acknowledged. Drop it and continue from here.
			if err := os.Truncate(path, off); err != nil {
				return 0, 0, 0, 0, fmt.Errorf("durable: truncate torn tail: %w", err)
			}
			stats.TornBytes += int64(len(raw)) - off
		} else if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("durable: shard %d %s at offset %d: %w", i, filepath.Base(path), off, err)
		}
		stats.Records += int(nrecs)
		recs += nrecs
		bytes += off
		lastSize = off
	}
	return len(paths), lastSize, recs, bytes, nil
}

// Apply re-executes one WAL record against shard i of c — the single
// replay path shared by crash recovery and log-shipping followers, so a
// replica converges on exactly the state recovery would rebuild. It does
// not lock: recovery runs single-threaded before serving, and a follower
// applying to a live (serving) cluster must hold shard i's exclusive
// statement lock across the call. Nothing is re-logged either way — the
// unlocked sql.Run path never touches the commit-log hook.
func Apply(c *shard.Cluster, i int, rec Record) error {
	db := c.Shard(i)
	switch rec.Kind {
	case recStatement:
		st, err := sql.Parse(rec.Src)
		if err != nil {
			return fmt.Errorf("%w: logged statement does not parse: %v", ErrCorrupt, err)
		}
		_, runErr := sql.Run(db, st, nil)
		if runErr != nil && !rec.Failed {
			// The statement committed cleanly before the crash but fails
			// now: the replayed prefix has diverged — refusing is safer
			// than serving silently different data.
			return fmt.Errorf("durable: replay diverged: %q failed on recovery: %w", rec.Src, runErr)
		}
		// Failed-flagged statements are replayed leniently: the engine is
		// deterministic, so re-execution reproduces the same partial
		// effects and (normally) the same error.
		if ct, ok := st.(*sql.CreateTable); ok && runErr == nil && c.N() > 1 && !c.Registered(ct.Name) {
			// First shard to replay the broadcast CREATE registers it for
			// routing, exactly as sql's scatterWrite did.
			c.Register(ct.Name, ct.Columns[0].Name, ct.Columns[0].Words != 1)
		}
		if rec.Unstable {
			if up, ok := st.(*sql.Update); ok {
				c.MarkUnstable(up.Table)
			}
		}
		return nil
	case recInsert:
		if len(rec.Rows) != len(rec.Globals) {
			return fmt.Errorf("%w: insert record with %d rows, %d globals", ErrCorrupt, len(rec.Rows), len(rec.Globals))
		}
		t, ok := db.Table(rec.Table)
		if !ok {
			return fmt.Errorf("durable: replay diverged: insert into missing table %q", rec.Table)
		}
		first := t.Rows()
		n, appendErr := t.AppendRows(rec.Rows)
		for j := 0; j < n; j++ {
			if err := c.AssignRecovered(rec.Table, i, first+j, rec.Globals[j]); err != nil {
				return err
			}
		}
		if appendErr != nil {
			return fmt.Errorf("durable: replay diverged: %q insert: %w", rec.Table, appendErr)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, rec.Kind)
	}
}

// shardHook adapts one shard's Log to the engine.CommitLog interface the
// sql layer calls on the commit path.
type shardHook struct {
	log *Log
}

// LogStatement implements engine.CommitLog.
func (h *shardHook) LogStatement(src string, failed, unstable bool) (func() error, error) {
	return h.log.Append(encodeStatement(nil, src, failed, unstable))
}

// LogInsert implements engine.CommitLog.
func (h *shardHook) LogInsert(table string, rows [][]uint64, globals []int) (func() error, error) {
	return h.log.Append(encodeInsert(nil, table, rows, globals))
}
