package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"strconv"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
)

// Replication wiring: the endpoints and state transitions that let one
// server act as a primary (serving its WAL to followers), a read replica
// (applying shipped records while rejecting client writes), or a node
// that is temporarily neither (recovering, catching up, draining).
//
// The readiness split matters for routing: /healthz answers "is the
// process alive" and stays 200 through recovery and drain; /readyz
// answers "is it safe to send queries here" and goes 503 whenever
// serving would return stale, partial, or soon-to-vanish state. Routers
// and the chaos harness select on /readyz only.

// Cluster returns the cluster the server currently serves. Statements
// load it once at execution start, so a concurrent SwapCluster never
// splits one statement across two clusters.
func (s *Server) Cluster() *shard.Cluster { return s.cluster.Load() }

// SwapCluster replaces the served cluster — a replica re-syncing from a
// checkpoint after the primary's WAL epoch rotated away builds the new
// state off to the side and swaps it in whole. Call it only while the
// server is not ready (the follower does), so no new statement starts
// against half-loaded state; statements already running finish against
// the old cluster, which stays valid read-only garbage until they do.
func (s *Server) SwapCluster(c *shard.Cluster) { s.cluster.Store(c) }

// SetNotReady marks the server unsafe to route to, with the reason
// /readyz reports: "wal recovery", "replica catch-up", "draining".
// Queries are rejected with the retryable CodeUnavailable until SetReady.
func (s *Server) SetNotReady(reason string) { s.notReady.Store(&reason) }

// SetReady marks the server safe to route to again.
func (s *Server) SetReady() { s.notReady.Store(nil) }

// Ready reports the readiness state and, when not ready, the reason.
func (s *Server) Ready() (bool, string) {
	if r := s.notReady.Load(); r != nil {
		return false, *r
	}
	return true, ""
}

// whenReady gates an endpoint on readiness: 503 with the reason during
// WAL recovery, replica catch-up, and drain. GET /readyz is the bare gate
// (200 "ok" when queries are safe here); the shipping and convergence
// endpoints sit behind it because WAL recovery mutates shards and log
// state without their serving locks (nothing else can touch them
// pre-ready), so they must not read until the node is ready — 503 tells
// followers and the chaos harness to come back, exactly like a query
// would be told.
func (s *Server) whenReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := s.Ready(); !ok {
			http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

// walRoute is whenReady for a /wal/* endpoint, which also needs the
// durable store: 404 when the server is volatile.
func (s *Server) walRoute(h func(http.ResponseWriter, *http.Request, *durable.Store)) http.HandlerFunc {
	return s.whenReady(func(w http.ResponseWriter, r *http.Request) {
		if s.opts.Durable == nil {
			http.Error(w, "server is volatile (no -data-dir): nothing to ship", http.StatusNotFound)
			return
		}
		h(w, r, s.opts.Durable)
	})
}

// ChecksumResponse is the GET /checksum payload: one SHA-256 per shard
// over the engine's canonical snapshot encoding. The engine is
// deterministic and Save sorts its catalog, so two nodes that applied the
// same statements hash identically — the replica-convergence check is a
// string compare.
type ChecksumResponse struct {
	Mode   string   `json:"mode"`
	Shards []string `json:"shards"`
}

// Checksums computes the per-shard state hashes (the in-process view of
// GET /checksum). Each shard hashes under its read lock, so a hash is
// internally consistent; for a cross-node convergence check, quiesce
// writes first (the chaos harness does).
func (s *Server) Checksums() ChecksumResponse {
	c := s.Cluster()
	out := ChecksumResponse{Mode: engine.DualAddress.String(), Shards: make([]string, c.N())}
	for i := 0; i < c.N(); i++ {
		db := c.Shard(i)
		h := sha256.New()
		db.RLock()
		err := db.Save(h)
		db.RUnlock()
		if err != nil {
			out.Shards[i] = "error: " + err.Error()
			continue
		}
		out.Shards[i] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

func (s *Server) handleChecksum(w http.ResponseWriter, r *http.Request) {
	s.front.writeJSON(w, http.StatusOK, s.Checksums())
}

// WALStateResponse is the GET /wal/state payload a follower polls: the
// live epoch, the geometry it must match, every shard's append position
// (a catch-up target — a follower at or past these positions has applied
// everything acknowledged before the call), and every shard's
// epoch-cumulative record/byte totals (the replication-lag baseline;
// absent from pre-lag primaries, which followers treat as lag unknown).
type WALStateResponse struct {
	Epoch  uint64                  `json:"epoch"`
	Mode   string                  `json:"mode"`
	Shards int                     `json:"shards"`
	Pos    []durable.ShardPosition `json:"pos"`
	Totals []durable.ShardTotals   `json:"totals,omitempty"`
}

// handleWALState serves GET /wal/state.
func (s *Server) handleWALState(w http.ResponseWriter, r *http.Request, st *durable.Store) {
	epoch, shards, pos, totals, err := st.StreamState()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.front.writeJSON(w, http.StatusOK, WALStateResponse{
		Epoch: epoch, Mode: engine.DualAddress.String(), Shards: shards, Pos: pos, Totals: totals,
	})
}

// handleWALRead serves GET /wal/read?shard=i&epoch=e&seg=n&off=o[&max=b]:
// raw framed WAL bytes from one segment, at most max (default 1 MiB, up
// to durable.MaxFrameBytes so one read holds any record). The
// X-Wal-Rotated: 1 header means the segment is complete and fully served
// — advance to (n+1, 0).
// 410 Gone means the epoch was checkpointed away: re-sync via
// /wal/checkpoint + /wal/registry, then stream the new epoch.
func (s *Server) handleWALRead(w http.ResponseWriter, r *http.Request, st *durable.Store) {
	q := r.URL.Query()
	shardIdx, err1 := strconv.Atoi(q.Get("shard"))
	epoch, err2 := strconv.ParseUint(q.Get("epoch"), 10, 64)
	seg, err3 := strconv.Atoi(q.Get("seg"))
	off, err4 := strconv.ParseInt(q.Get("off"), 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		http.Error(w, "shard, epoch, seg, off query parameters are required integers", http.StatusBadRequest)
		return
	}
	maxBytes := 1 << 20
	if v, err := strconv.Atoi(q.Get("max")); err == nil && v > 0 && v <= durable.MaxFrameBytes {
		maxBytes = v
	}
	data, rotated, err := st.ReadWAL(shardIdx, epoch, seg, off, maxBytes)
	switch {
	case errors.Is(err, durable.ErrEpochGone):
		http.Error(w, err.Error(), http.StatusGone)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if rotated {
		w.Header().Set("X-Wal-Rotated", "1")
	}
	w.Write(data)
}

// handleWALCheckpoint serves GET /wal/checkpoint?shard=i: the shard's
// current-epoch snapshot stream (engine.Load format), with the epoch in
// X-Wal-Epoch. 404 when no checkpoint exists yet (epoch 1) — the
// follower starts from an empty cluster and streams the WAL instead.
func (s *Server) handleWALCheckpoint(w http.ResponseWriter, r *http.Request, st *durable.Store) {
	shardIdx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, "shard query parameter required", http.StatusBadRequest)
		return
	}
	rc, epoch, err := st.OpenCheckpoint(shardIdx)
	serveSnapshot(w, rc, epoch, err, http.StatusBadRequest)
}

// serveSnapshot streams one current-epoch snapshot file with its epoch in
// X-Wal-Epoch; no checkpoint yet is a 404 that still names the epoch, any
// other open failure is failStatus.
func serveSnapshot(w http.ResponseWriter, rc io.ReadCloser, epoch uint64, err error, failStatus int) {
	if errors.Is(err, durable.ErrNoCheckpoint) {
		w.Header().Set("X-Wal-Epoch", strconv.FormatUint(epoch, 10))
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), failStatus)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Wal-Epoch", strconv.FormatUint(epoch, 10))
	io.Copy(w, rc)
}

// handleWALRegistry serves GET /wal/registry: the current-epoch registry
// snapshot (framed gob; durable.DecodeRegistrySnapshot decodes it).
func (s *Server) handleWALRegistry(w http.ResponseWriter, r *http.Request, st *durable.Store) {
	rc, epoch, err := st.OpenRegistry()
	serveSnapshot(w, rc, epoch, err, http.StatusInternalServerError)
}

// Abort kills the server without a drain: listeners, HTTP servers, and
// every open connection close immediately, in-flight statements get no
// response, nothing checkpoints. It is the in-process stand-in for
// kill -9 that the chaos tests use — everything a real SIGKILL would
// leave behind (an unsynced WAL tail, clients mid-request) is left
// behind here too. A statement that was mid-execution finishes on its
// session's goroutine and releases its locks; it simply has no one to
// answer to.
func (s *Server) Abort() {
	s.SetNotReady("aborted")
	s.front.Close(context.Background(), false, nil)
}

// ApplyWAL applies one shipped WAL record to shard i of the served
// cluster under the shard's exclusive statement lock — the follower-side
// half of log shipping. It must only be called on a ReadOnly server
// (client writes are rejected, so shipped records are the sole mutation
// source and orderings cannot interleave).
func (s *Server) ApplyWAL(i int, rec durable.Record) error {
	c := s.Cluster()
	db := c.Shard(i)
	db.Lock()
	defer db.Unlock()
	return durable.Apply(c, i, rec)
}
