package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
)

// errEpochGone is the follower-side mirror of durable.ErrEpochGone: a 410
// from /wal/read, meaning the primary checkpointed the streamed epoch
// away and the follower must re-bootstrap from the new checkpoint.
var errEpochGone = errors.New("cluster: wal epoch gone, re-sync required")

// MaxBlobBytes caps one shipped bootstrap artifact (table registry or
// per-shard checkpoint) read into replica memory. Generous — a full
// checkpoint of the largest supported engine fits many times over — but
// finite, so a corrupt Content-Length or a runaway response body cannot
// OOM the replica.
const MaxBlobBytes = 1 << 30 // 1 GiB

// ErrBlobTooLarge reports a shipped artifact over MaxBlobBytes. It is
// permanent for the artifact: retrying cannot shrink the primary's
// checkpoint, so callers surface it instead of re-syncing forever.
var ErrBlobTooLarge = errors.New("cluster: shipped artifact exceeds size cap")

// FollowerOptions configures a replica's shipping loop.
type FollowerOptions struct {
	// PrimaryHTTP is the primary's HTTP address ("host:port") serving
	// /wal/* and /checksum.
	PrimaryHTTP string
	// Interval is the idle poll period when the WAL tail has no new bytes
	// (default 10ms; records apply as fast as they arrive otherwise).
	Interval time.Duration
	// Logger, when non-nil, receives sync/catch-up transitions.
	Logger *slog.Logger
}

const (
	// fetchTimeout bounds each HTTP call to the primary.
	fetchTimeout = 2 * time.Second
	// readBytes caps one /wal/read response; a record larger than that is
	// read whole in one bigger response.
	readBytes = 1 << 20
	// statePoll is the cadence of the dedicated /wal/state poll that
	// refreshes the primary's cumulative totals for the replication-lag
	// gauges. It runs independently of the apply loop, so lag keeps
	// rising while the apply loop is stuck.
	statePoll = 250 * time.Millisecond
)

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Millisecond
	}
	return o
}

// shardApplied is the follower's per-shard apply accounting within the
// current epoch: how many records and framed bytes it has applied since
// (seg 1, off 0), plus when the last record landed. Mirrors the primary's
// durable.ShardTotals, so the difference is the replication lag.
type shardApplied struct {
	recs  int64
	bytes int64
	last  time.Time
}

// Follower replicates a primary's state onto a read-replica server by
// tailing its per-shard WAL over HTTP and applying every record through
// durable.Apply — the same code path crash recovery replays, so the
// replica converges on byte-identical engine state (the engine is
// deterministic; /checksum proves it).
//
// Readiness protocol: the replica is not-ready from the moment the
// follower starts until it has applied at least up to the primary's
// append positions observed at bootstrap — serving earlier would return
// data from before the replica joined. After that first catch-up it
// stays ready even when the primary dies: an async replica serving
// slightly stale reads is the availability point of the whole design.
// A WAL epoch rotation (primary checkpointed while we streamed) flips it
// not-ready again for the duration of the re-bootstrap.
type Follower struct {
	srv  *server.Server
	opts FollowerOptions
	hc   *http.Client

	mu     sync.Mutex
	epoch  uint64
	pos    []durable.ShardPosition
	caught bool
	// Replication-lag accounting: what this replica has applied per shard
	// (reset at bootstrap — streaming restarts at the epoch's beginning)
	// against the primary's epoch-cumulative totals from its last
	// successful /wal/state poll (primAt; zero time = never polled).
	applied    []shardApplied
	primTotals []durable.ShardTotals
	primAt     time.Time

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	pollDone chan struct{}
}

// NewFollower creates a follower applying onto srv's cluster. srv must
// have been created with Options.ReadOnly (client writes would fork the
// replica from the primary) and should be not-ready until the follower
// reports catch-up — Start enforces both.
func NewFollower(srv *server.Server, opts FollowerOptions) *Follower {
	return &Follower{
		srv:      srv,
		opts:     opts.withDefaults(),
		hc:       &http.Client{Timeout: fetchTimeout},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		pollDone: make(chan struct{}),
	}
}

// Start launches the shipping loop and the lag-tracking state poll, and
// registers the follower as the server's replication-status provider so
// the replica's /metrics reports lag. Stop tears it down.
func (f *Follower) Start() {
	f.srv.SetNotReady("replica catch-up")
	f.srv.SetReplicationStatus(f.Lag)
	go f.run()
	go f.pollState()
}

// Stop terminates the shipping loop and waits for it to exit. Safe to
// call more than once.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	<-f.pollDone
}

// Status reports the follower's applied positions (epoch and per-shard
// WAL offsets) and whether it has reached its bootstrap catch-up target.
func (f *Follower) Status() (epoch uint64, pos []durable.ShardPosition, caughtUp bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, append([]durable.ShardPosition(nil), f.pos...), f.caught
}

func (f *Follower) run() {
	defer close(f.done)
	for {
		target, err := f.bootstrap()
		if err != nil {
			if f.opts.Logger != nil {
				f.opts.Logger.Warn("replica bootstrap failed, retrying", "error", err)
			}
			if !f.sleep(f.opts.Interval * 10) {
				return
			}
			continue
		}
		if !f.stream(target) {
			return
		}
		// stream only returns (with more work to do) on epoch rotation:
		// loop back into bootstrap against the new checkpoint.
	}
}

// sleep waits d or until Stop; false means stop.
func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// bootstrap points the follower at the primary's current epoch: fetch
// /wal/state, verify geometry, and when the epoch has a checkpoint, build
// a FRESH cluster from its snapshots and swap it in whole (the server is
// not-ready throughout, so no query observes the half-loaded state).
// Returns the primary's append positions at the time of the call — the
// catch-up target that gates readiness.
func (f *Follower) bootstrap() ([]durable.ShardPosition, error) {
	st, err := f.fetchState()
	if err != nil {
		return nil, err
	}
	cur := f.srv.Cluster()
	if st.Shards != cur.N() {
		return nil, fmt.Errorf("cluster: primary has %d shards, replica %d", st.Shards, cur.N())
	}
	if st.Mode != engine.DualAddress.String() {
		return nil, fmt.Errorf("cluster: primary mode %s, replica %s", st.Mode, engine.DualAddress)
	}

	fresh, err := shard.Open(engine.DualAddress, cur.N(), cur.Workers())
	if err != nil {
		return nil, err
	}
	if st.Epoch > 1 {
		if err := f.loadCheckpoint(fresh, st.Epoch); err != nil {
			return nil, err
		}
	}
	f.srv.SetNotReady("replica catch-up")
	f.srv.SwapCluster(fresh)

	pos := make([]durable.ShardPosition, st.Shards)
	for i := range pos {
		pos[i] = durable.ShardPosition{Seg: 1, Off: 0}
	}
	now := time.Now()
	applied := make([]shardApplied, st.Shards)
	for i := range applied {
		applied[i].last = now
	}
	f.mu.Lock()
	f.epoch = st.Epoch
	f.pos = pos
	f.caught = false
	// Lag accounting restarts with the epoch: applied counts reset (the
	// stream re-begins at seg 1 off 0) and the primary totals observed in
	// this same /wal/state response are the first baseline.
	f.applied = applied
	f.primTotals = st.Totals
	if st.Totals != nil {
		f.primAt = now
	}
	f.mu.Unlock()
	if f.opts.Logger != nil {
		f.opts.Logger.Info("replica bootstrapped", "epoch", st.Epoch,
			"checkpoint", st.Epoch > 1, "shards", st.Shards)
	}
	return st.Pos, nil
}

// loadCheckpoint restores the registry and every shard snapshot of the
// given epoch into c. A concurrent checkpoint on the primary (epoch moved
// between our /wal/state and these fetches) fails the load; the caller
// re-bootstraps against the new epoch.
func (f *Follower) loadCheckpoint(c *shard.Cluster, epoch uint64) error {
	raw, gotEpoch, err := f.fetchBlob("/wal/registry")
	if err != nil {
		return err
	}
	if gotEpoch != epoch {
		return fmt.Errorf("cluster: registry is epoch %d, wanted %d (primary checkpointed mid-sync)", gotEpoch, epoch)
	}
	regState, err := durable.DecodeRegistrySnapshot(raw)
	if err != nil {
		return err
	}
	if err := c.RestoreRegistry(regState); err != nil {
		return err
	}
	for i := 0; i < c.N(); i++ {
		raw, gotEpoch, err := f.fetchBlob("/wal/checkpoint?shard=" + strconv.Itoa(i))
		if err != nil {
			return err
		}
		if gotEpoch != epoch {
			return fmt.Errorf("cluster: shard %d checkpoint is epoch %d, wanted %d", i, gotEpoch, epoch)
		}
		if err := c.Shard(i).Load(bytes.NewReader(raw)); err != nil {
			return fmt.Errorf("cluster: shard %d checkpoint: %w", i, err)
		}
	}
	return nil
}

// stream tails every shard's WAL, applying complete frames, until Stop
// (returns false) or an epoch rotation (returns true: re-bootstrap).
// Readiness flips on the first time every shard reaches target.
func (f *Follower) stream(target []durable.ShardPosition) bool {
	for {
		advanced := false
		for i := range target {
			n, err := f.pullShard(i, readBytes)
			if errors.Is(err, errEpochGone) {
				f.srv.SetNotReady("replica re-sync (wal epoch rotated)")
				return true
			}
			if err != nil {
				// Transient (primary down, network): stay at the current
				// position and retry. An already-caught-up replica keeps
				// serving reads — stale but consistent — which is exactly
				// the failure mode async replication promises.
				if f.opts.Logger != nil {
					f.opts.Logger.Warn("wal pull failed", "shard", i, "error", err)
				}
				if !f.sleep(f.opts.Interval * 10) {
					return false
				}
				continue
			}
			if n > 0 {
				advanced = true
			}
		}
		f.checkCaughtUp(target)
		if !advanced {
			if !f.sleep(f.opts.Interval) {
				return false
			}
		}
		select {
		case <-f.stop:
			return false
		default:
		}
	}
}

// checkCaughtUp flips the replica ready the first time every shard's
// applied position reaches the bootstrap target.
func (f *Follower) checkCaughtUp(target []durable.ShardPosition) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.caught {
		return
	}
	for i, t := range target {
		p := f.pos[i]
		if p.Seg < t.Seg || (p.Seg == t.Seg && p.Off < t.Off) {
			return
		}
	}
	f.caught = true
	f.srv.SetReady()
	if f.opts.Logger != nil {
		f.opts.Logger.Info("replica caught up, serving", "epoch", f.epoch)
	}
}

// pullShard fetches one round of up to maxBytes WAL bytes for shard i and
// applies every complete frame, advancing the follower's position.
// Returns the number of bytes applied; on a decode or apply error, the
// position still advances past the frames applied before it.
func (f *Follower) pullShard(i, maxBytes int) (int64, error) {
	f.mu.Lock()
	epoch, pos := f.epoch, f.pos[i]
	f.mu.Unlock()

	url := fmt.Sprintf("http://%s/wal/read?shard=%d&epoch=%d&seg=%d&off=%d&max=%d",
		f.opts.PrimaryHTTP, i, epoch, pos.Seg, pos.Off, maxBytes)
	resp, err := f.hc.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, resp.Body)
		return 0, errEpochGone
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("cluster: /wal/read: %s: %s", resp.Status, body)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, int64(maxBytes)+1))
	if err != nil {
		return 0, err
	}
	rotated := resp.Header.Get("X-Wal-Rotated") == "1"

	applied, recs, err := durable.ApplyFrames(data, func(rec durable.Record) error { return f.srv.ApplyWAL(i, rec) })
	if errors.Is(err, durable.ErrTorn) {
		// Mid-append tail: the rest of the frame arrives on the next poll.
		// Never advance past it.
		rotated = false
		if need := durable.FrameLen(data); applied == 0 && need > maxBytes {
			// A record larger than one read: ask again for the whole frame.
			return f.pullShard(i, need)
		}
		err = nil
	} else if err != nil {
		// The frames before the bad one are applied: keep their position,
		// or the next round applies them again.
		rotated = false
		err = fmt.Errorf("cluster: shard %d wal at seg %d off %d: %w", i, pos.Seg, pos.Off+applied, err)
	}
	pos.Off += applied
	if rotated {
		pos.Seg, pos.Off = pos.Seg+1, 0
	}
	f.mu.Lock()
	f.pos[i] = pos
	// Frame bytes consumed here count exactly as the primary's Append
	// counts them, so applied totals subtract cleanly from its
	// epoch-cumulative totals.
	f.applied[i].recs += recs
	f.applied[i].bytes += applied
	if recs > 0 {
		f.applied[i].last = time.Now()
	}
	f.mu.Unlock()
	return applied, err
}

// pollState is the dedicated lag-tracking loop: every statePoll it
// refreshes the primary's epoch-cumulative totals from /wal/state. It is
// deliberately independent of the apply loop — a stuck or wedged apply
// path is exactly when an operator needs the lag gauges to keep moving.
// Poll failures leave the last totals in place; StateAgeSeconds on the
// reported status says how stale they are.
func (f *Follower) pollState() {
	defer close(f.pollDone)
	for {
		if !f.sleep(statePoll) {
			return
		}
		st, err := f.fetchState()
		if err != nil {
			continue
		}
		f.mu.Lock()
		// Totals from a different epoch would subtract nonsense from our
		// applied counts; the apply loop notices the rotation itself (410
		// from /wal/read) and re-bootstraps, which resets both sides.
		if st.Epoch == f.epoch && st.Totals != nil {
			f.primTotals = st.Totals
			f.primAt = time.Now()
		}
		f.mu.Unlock()
	}
}

// Lag reports the replica's replication status: per-shard records/bytes
// behind the primary (exact as of the last /wal/state poll) and the wall
// time since each shard last applied a record. Registered with the server
// at Start, so the replica's /metrics exposes it.
func (f *Follower) Lag() server.ReplicationStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	st := server.ReplicationStatus{Epoch: f.epoch, CaughtUp: f.caught}
	if !f.primAt.IsZero() {
		st.StateAgeSeconds = now.Sub(f.primAt).Seconds()
	}
	for i := range f.applied {
		lag := server.ReplicaShardLag{
			Shard:               i,
			LastApplyAgeSeconds: now.Sub(f.applied[i].last).Seconds(),
		}
		if i < len(f.primTotals) {
			// Clamp at zero: the replica can observe totals older than its
			// applied counts (state poll raced an apply round).
			if d := f.primTotals[i].Recs - f.applied[i].recs; d > 0 {
				lag.RecordsBehind = d
			}
			if d := f.primTotals[i].Bytes - f.applied[i].bytes; d > 0 {
				lag.BytesBehind = d
			}
		}
		st.Shards = append(st.Shards, lag)
	}
	// A replica past its bootstrap target but with known records pending is
	// not caught up — a stuck apply loop must read as lagging, not done.
	for _, sh := range st.Shards {
		if sh.RecordsBehind > 0 {
			st.CaughtUp = false
			break
		}
	}
	return st
}

// fetchState retrieves the primary's /wal/state.
func (f *Follower) fetchState() (*server.WALStateResponse, error) {
	resp, err := f.hc.Get("http://" + f.opts.PrimaryHTTP + "/wal/state")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("cluster: /wal/state: %s: %s", resp.Status, body)
	}
	var st server.WALStateResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// fetchBlob retrieves one binary shipping artifact plus its X-Wal-Epoch.
func (f *Follower) fetchBlob(path string) ([]byte, uint64, error) {
	resp, err := f.hc.Get("http://" + f.opts.PrimaryHTTP + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	epoch, _ := strconv.ParseUint(resp.Header.Get("X-Wal-Epoch"), 10, 64)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, epoch, fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, body)
	}
	// Bound the read: an advertised oversize rejects before any copy, and
	// a body that keeps going past the cap (lying or absent Content-Length)
	// rejects as soon as it crosses it.
	if resp.ContentLength > MaxBlobBytes {
		return nil, epoch, fmt.Errorf("%w: %s advertises %d bytes (cap %d)",
			ErrBlobTooLarge, path, resp.ContentLength, int64(MaxBlobBytes))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxBlobBytes+1))
	if err != nil {
		return nil, epoch, err
	}
	if len(raw) > MaxBlobBytes {
		return nil, epoch, fmt.Errorf("%w: %s body exceeds %d bytes",
			ErrBlobTooLarge, path, int64(MaxBlobBytes))
	}
	return raw, epoch, nil
}
