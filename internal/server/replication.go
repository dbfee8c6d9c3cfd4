package server

// Replication-lag surface. A read replica's Follower (internal/cluster)
// knows, per shard, how far the node trails the primary: it polls the
// primary's /wal/state (which carries epoch-cumulative record/byte totals
// per shard) and counts what it has applied locally. The package
// dependency points cluster→server, so the server cannot ask the follower
// directly; instead the follower registers a status provider here and
// /metrics consults it. A node with no provider (a primary, or a
// volatile single node) simply omits the series.

// ReplicaShardLag is one shard's replication lag as of the provider call.
type ReplicaShardLag struct {
	Shard int
	// RecordsBehind and BytesBehind are the primary's epoch-cumulative
	// totals minus what this replica has applied — exact within an epoch,
	// clamped at zero across epoch transitions (the follower re-syncs and
	// both sides reset).
	RecordsBehind int64
	BytesBehind   int64
	// LastApplyAgeSeconds is the wall time since the last WAL record was
	// applied to this shard (since bootstrap if none has been). Large
	// values with zero records behind just mean an idle primary.
	LastApplyAgeSeconds float64
}

// ReplicationStatus is the replica-side lag snapshot the Follower
// provides to /metrics.
type ReplicationStatus struct {
	// Epoch is the WAL epoch the replica is streaming.
	Epoch uint64
	// CaughtUp mirrors the follower's readiness flip: true once every
	// shard reached the catch-up target observed at bootstrap.
	CaughtUp bool
	// StateAgeSeconds is how stale the primary-side totals are: wall time
	// since the last successful /wal/state poll. Lag numbers are exact as
	// of that poll, not of now.
	StateAgeSeconds float64
	Shards          []ReplicaShardLag
}

// SetReplicationStatus registers the provider consulted by /metrics for
// replication-lag reporting. The follower calls it once at Start; passing
// nil unregisters.
func (s *Server) SetReplicationStatus(f func() ReplicationStatus) {
	if f == nil {
		s.repl.Store(nil)
		return
	}
	s.repl.Store(&f)
}

// replicationStatus invokes the registered provider; ok is false when the
// node has none (not a replica).
func (s *Server) replicationStatus() (ReplicationStatus, bool) {
	p := s.repl.Load()
	if p == nil {
		return ReplicationStatus{}, false
	}
	return (*p)(), true
}
