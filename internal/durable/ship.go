package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rcnvm/internal/shard"
)

// Log shipping: a primary's WAL is an append-only sequence of framed
// records per shard, already on disk (or in the page cache) by the time a
// statement is acknowledged. Replication therefore needs no second write
// path — a follower reads the same segments the crash-recovery code
// replays, applies each record through the same Apply function recovery
// uses, and converges on byte-identical engine state because the engine
// is deterministic.
//
// The reader contract, designed for polling over HTTP (/wal/stream):
//
//   - A position is (epoch, segment, offset). Followers advance the
//     offset only past fully-decoded frames, so a read that ends inside a
//     frame (the primary was mid-append) is simply re-requested.
//   - ReadWAL serves bytes from one segment. rotated=true means the
//     segment is complete and fully served: advance to (seg+1, 0).
//   - A checkpoint rotates every shard's WAL into a new epoch and sweeps
//     the old segments. A follower holding a position in a swept epoch
//     gets ErrEpochGone and must re-sync from the current checkpoint
//     (OpenCheckpoint / OpenRegistry) before streaming again.

// ErrEpochGone reports a WAL position whose epoch has been checkpointed
// away: the segments no longer exist, so the follower must re-sync from
// the current checkpoint instead of streaming.
var ErrEpochGone = errors.New("durable: wal epoch rotated away (re-sync from checkpoint)")

// ErrNoCheckpoint reports that the store has no checkpoint yet (epoch 1):
// a follower starts from an empty cluster and replays the WAL from the
// beginning instead.
var ErrNoCheckpoint = errors.New("durable: no checkpoint yet (stream the wal from seg 1)")

// ShardPosition is one shard's WAL append position within the current
// epoch.
type ShardPosition struct {
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
}

// ShardTotals is one shard's cumulative WAL accounting within the current
// epoch: how many records and framed bytes have been appended since the
// epoch began, across all of its segments. A follower streaming the same
// epoch from (seg 1, off 0) accumulates the same quantities as it applies,
// so primary totals minus follower applied is an exact per-shard
// replication lag in records and bytes.
type ShardTotals struct {
	Recs  int64 `json:"recs"`
	Bytes int64 `json:"bytes"`
}

// Totals returns the log's epoch-cumulative record and byte counts (see
// ShardTotals).
func (l *Log) Totals() (recs, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochRecs, l.epochBytes
}

// Position returns the log's current epoch, segment index, and the byte
// length of the current segment that is covered by completed appends.
// Bytes below the returned size are complete frames, safe for a
// concurrent reader of the segment file.
func (l *Log) Position() (epoch uint64, seg int, size int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.segIdx, l.size
}

// shardLog returns shard i's open log. It blocks while a checkpoint is in
// progress (the checkpointer holds the store lock), so positions observed
// by shippers never interleave with an epoch rotation.
func (s *Store) shardLog(i int) (*Log, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errLogClosed
	}
	if s.cluster == nil {
		return nil, fmt.Errorf("durable: store not attached (call Recover first)")
	}
	if i < 0 || i >= s.n {
		return nil, fmt.Errorf("durable: shard %d out of range [0,%d)", i, s.n)
	}
	return s.logs[i], nil
}

// StreamState reports the store's current shipping state: the epoch, the
// shard count a follower must match, every shard's append position, and
// every shard's epoch-cumulative record/byte totals. The positions are a
// consistent target for catch-up checks: a follower that has applied past
// them has seen every record acknowledged before the call. The totals are
// the lag baseline: follower applied-counts subtracted from them give
// records/bytes behind.
func (s *Store) StreamState() (epoch uint64, shards int, pos []ShardPosition, totals []ShardTotals, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, nil, nil, errLogClosed
	}
	if s.cluster == nil {
		return 0, 0, nil, nil, fmt.Errorf("durable: store not attached (call Recover first)")
	}
	pos = make([]ShardPosition, s.n)
	totals = make([]ShardTotals, s.n)
	for i, l := range s.logs {
		_, seg, size := l.Position()
		pos[i] = ShardPosition{Seg: seg, Off: size}
		recs, bytes := l.Totals()
		totals[i] = ShardTotals{Recs: recs, Bytes: bytes}
	}
	return s.epoch, s.n, pos, totals, nil
}

// ReadWAL reads up to maxBytes of framed WAL records from shard i's
// segment (epoch, seg) starting at byte off. rotated=true means the
// segment is complete (a newer one exists) and this read reached its end,
// so the follower's next position is (seg+1, 0). A read at the live tail
// returns however many complete-append bytes exist past off (possibly
// none); the follower polls again later. ErrEpochGone means a checkpoint
// swept the requested epoch and the follower must re-sync.
func (s *Store) ReadWAL(shard int, epoch uint64, seg int, off int64, maxBytes int) (data []byte, rotated bool, err error) {
	l, err := s.shardLog(shard)
	if err != nil {
		return nil, false, err
	}
	curEpoch, curSeg, curSize := l.Position()
	if epoch != curEpoch {
		return nil, false, ErrEpochGone
	}
	if seg < 1 || seg > curSeg {
		return nil, false, fmt.Errorf("durable: shard %d has no wal segment %d (current is %d)", shard, seg, curSeg)
	}
	path := filepath.Join(s.shardDir(shard), segName(epoch, seg))
	limit := curSize
	if seg < curSeg {
		fi, err := os.Stat(path)
		if os.IsNotExist(err) {
			return nil, false, ErrEpochGone // swept by a concurrent checkpoint
		}
		if err != nil {
			return nil, false, fmt.Errorf("durable: %w", err)
		}
		limit = fi.Size()
	}
	if off < 0 || off > limit {
		return nil, false, fmt.Errorf("durable: shard %d segment %d: offset %d past end %d", shard, seg, off, limit)
	}
	n := limit - off
	if int64(maxBytes) < n {
		n = int64(maxBytes)
	}
	if n > 0 {
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			return nil, false, ErrEpochGone
		}
		if err != nil {
			return nil, false, fmt.Errorf("durable: %w", err)
		}
		defer f.Close()
		data = make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(f, off, n), data); err != nil {
			return nil, false, fmt.Errorf("durable: read wal segment: %w", err)
		}
	}
	return data, seg < curSeg && off+n == limit, nil
}

// OpenCheckpoint opens shard i's current-epoch checkpoint snapshot for
// streaming to a follower. ErrNoCheckpoint when the store has never
// checkpointed (epoch 1): the follower starts empty and replays the WAL.
func (s *Store) OpenCheckpoint(shard int) (rc io.ReadCloser, epoch uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, errLogClosed
	}
	if shard < 0 || shard >= s.n {
		return nil, 0, fmt.Errorf("durable: shard %d out of range [0,%d)", shard, s.n)
	}
	f, err := os.Open(s.checkpointPath(shard, s.epoch))
	if os.IsNotExist(err) {
		return nil, s.epoch, ErrNoCheckpoint
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	return f, s.epoch, nil
}

// OpenRegistry opens the current-epoch registry snapshot (the framed gob
// the follower feeds through readFramedGob → RestoreRegistry).
// ErrNoCheckpoint when the store has never checkpointed.
func (s *Store) OpenRegistry() (rc io.ReadCloser, epoch uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, errLogClosed
	}
	f, err := os.Open(s.registryPath(s.epoch))
	if os.IsNotExist(err) {
		return nil, s.epoch, ErrNoCheckpoint
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	return f, s.epoch, nil
}

// DecodeRegistrySnapshot decodes the bytes served by OpenRegistry (or
// GET /wal/registry) into the registry state RestoreRegistry accepts.
func DecodeRegistrySnapshot(raw []byte) (st shard.RegistryState, err error) {
	err = readFramedGob(raw, &st)
	return st, err
}
