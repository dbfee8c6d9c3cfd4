package durable

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// followShard pulls shard i's WAL from src and applies every complete
// frame to dst, starting at *pos (advanced in place). It stops at the
// live tail. This is the follower loop in miniature — the HTTP transport
// in internal/cluster moves the same bytes.
func followShard(t *testing.T, src *Store, dst *shard.Cluster, i int, epoch uint64, pos *ShardPosition) {
	t.Helper()
	for {
		data, rotated, err := src.ReadWAL(i, epoch, pos.Seg, pos.Off, 1<<20)
		if err != nil {
			t.Fatalf("shard %d read at %+v: %v", i, *pos, err)
		}
		rest := data
		for len(rest) > 0 {
			payload, next, err := DecodeFrame(rest)
			if err != nil {
				if errors.Is(err, ErrTorn) {
					break // mid-append tail; re-request from the same offset
				}
				t.Fatalf("shard %d decode at %+v: %v", i, *pos, err)
			}
			rec, err := DecodePayload(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := Apply(dst, i, rec); err != nil {
				t.Fatal(err)
			}
			pos.Off += int64(len(rest) - len(next))
			rest = next
		}
		if rotated {
			pos.Seg, pos.Off = pos.Seg+1, 0
			continue
		}
		if len(data) == 0 {
			return
		}
	}
}

// saveBytes snapshots one shard's engine state (the byte-compare the
// cluster's /checksum endpoint hashes).
func saveBytes(t *testing.T, db *engine.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestShipWALToFollowerConverges(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(map[int]string{1: "one shard", 4: "four shards"}[shards], func(t *testing.T) {
			dir := t.TempDir()
			s, c, _ := openRecovered(t, dir, shards)
			defer s.Close()
			mustExec(t, c, "CREATE TABLE kv (k, grp, val) CAPACITY 1024")
			mustExec(t, c, "INSERT INTO kv VALUES (1, 0, 10), (2, 1, 20), (3, 0, 30)")
			mustExec(t, c, "UPDATE kv SET val = 99 WHERE k = 2")
			mustExec(t, c, "DELETE FROM kv WHERE k = 3")

			follower, err := shard.Open(engine.DualAddress, shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			epoch, n, pos, _, err := s.StreamState()
			if err != nil {
				t.Fatal(err)
			}
			if n != shards {
				t.Fatalf("stream state shards=%d", n)
			}
			start := make([]ShardPosition, n)
			for i := range start {
				start[i] = ShardPosition{Seg: 1, Off: 0}
			}
			for i := 0; i < n; i++ {
				followShard(t, s, follower, i, epoch, &start[i])
				if start[i] != pos[i] {
					t.Fatalf("shard %d followed to %+v, primary at %+v", i, start[i], pos[i])
				}
			}
			for i := 0; i < n; i++ {
				if p, f := saveBytes(t, c.Shard(i)), saveBytes(t, follower.Shard(i)); !bytes.Equal(p, f) {
					t.Fatalf("shard %d state diverged after shipping (%d vs %d bytes)", i, len(p), len(f))
				}
			}
			// The follower keeps up with further appends from its position.
			mustExec(t, c, "INSERT INTO kv VALUES (7, 1, 70)")
			for i := 0; i < n; i++ {
				followShard(t, s, follower, i, epoch, &start[i])
				if p, f := saveBytes(t, c.Shard(i)), saveBytes(t, follower.Shard(i)); !bytes.Equal(p, f) {
					t.Fatalf("shard %d diverged after incremental ship", i)
				}
			}
			// Scatter-gather results agree too (global row ids shipped in
			// the insert records reproduce the merge keys).
			want := mustExec(t, c, "SELECT * FROM kv ORDER BY k").Format()
			got, _, err := sql.Execute(follower, "SELECT * FROM kv ORDER BY k", sql.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Format() != want {
				t.Fatalf("follower result:\n%s\nprimary result:\n%s", got.Format(), want)
			}
		})
	}
}

// TestShipAcrossSegmentRotation forces tiny segments so the follower has
// to walk the rotated chain.
func TestShipAcrossSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, engine.DualAddress, 1, Options{Fsync: SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(c); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "CREATE TABLE kv (k, val) CAPACITY 1024")
	for i := 0; i < 40; i++ {
		mustExec(t, c, "INSERT INTO kv VALUES (1, 2)")
	}
	_, seg, _ := s.logs[0].Position()
	if seg < 2 {
		t.Fatalf("expected rotation, still on segment %d", seg)
	}
	follower, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pos := ShardPosition{Seg: 1, Off: 0}
	followShard(t, s, follower, 0, 1, &pos)
	if pos.Seg != seg {
		t.Fatalf("follower stopped at segment %d, primary on %d", pos.Seg, seg)
	}
	if p, f := saveBytes(t, c.Shard(0)), saveBytes(t, follower.Shard(0)); !bytes.Equal(p, f) {
		t.Fatal("state diverged across segment rotation")
	}
}

// TestShipEpochRotationSignalsResync: once a checkpoint sweeps the
// follower's epoch, reads fail with ErrEpochGone and the checkpoint +
// registry snapshots are served for the re-sync.
func TestShipEpochRotationSignalsResync(t *testing.T) {
	dir := t.TempDir()
	s, c, _ := openRecovered(t, dir, 2)
	defer s.Close()
	mustExec(t, c, "CREATE TABLE kv (k, val) CAPACITY 1024")
	mustExec(t, c, "INSERT INTO kv VALUES (1, 10), (2, 20)")

	if _, _, err := s.ReadWAL(0, 1, 1, 0, 1<<20); err != nil {
		t.Fatalf("pre-checkpoint read: %v", err)
	}
	if _, _, err := s.OpenCheckpoint(0); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("epoch-1 checkpoint open: %v, want ErrNoCheckpoint", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadWAL(0, 1, 1, 0, 1<<20); !errors.Is(err, ErrEpochGone) {
		t.Fatalf("post-checkpoint read of old epoch: %v, want ErrEpochGone", err)
	}

	// Re-sync path: load the checkpoint + registry into a fresh cluster,
	// then stream the (empty) new-epoch WAL.
	follower, err := shard.Open(engine.DualAddress, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rrc, repoch, err := s.OpenRegistry()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(rrc)
	rrc.Close()
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeRegistrySnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.RestoreRegistry(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rc, epoch, err := s.OpenCheckpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		if epoch != repoch {
			t.Fatalf("checkpoint epoch %d, registry epoch %d", epoch, repoch)
		}
		err = follower.Shard(i).Load(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, c, "INSERT INTO kv VALUES (3, 30)")
	for i := 0; i < 2; i++ {
		pos := ShardPosition{Seg: 1, Off: 0}
		followShard(t, s, follower, i, repoch, &pos)
		if p, f := saveBytes(t, c.Shard(i)), saveBytes(t, follower.Shard(i)); !bytes.Equal(p, f) {
			t.Fatalf("shard %d diverged after re-sync", i)
		}
	}
}
