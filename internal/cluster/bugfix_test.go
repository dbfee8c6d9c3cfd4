package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

// TestReadRoundRobinSurvivesCursorWraparound: the round-robin cursor is a
// uint64; once it passes 1<<63 a naive int(cursor) % n goes negative and
// indexes out of bounds. Seed the cursor just below the wrap and drive
// enough reads to cross it — every read must succeed and keep spreading.
func TestReadRoundRobinSurvivesCursorWraparound(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	r1 := startReplica(t, p.http, 1)
	r2 := startReplica(t, p.http, 1)
	rt, addr := startRouter(t, p, r1, r2)

	seed(t, addr, 8)
	waitConverged(t, p, r1)
	waitConverged(t, p, r2)
	waitUntil(t, 10*time.Second, "both replicas in rotation", func() bool { return rt.Healthy() == 2 })

	// Just below the int64 sign boundary AND the uint64 wrap: the reads
	// below cross both. Before the fix the first read past 1<<63 panicked
	// the session goroutine with an index out of range.
	rt.rr.Store(math.MaxInt64 - 3)

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const reads = 12
	for i := 0; i < reads; i++ {
		resp := mustQuery(t, c, "SELECT COUNT(*) FROM kv")
		if len(resp.Rows) != 1 || resp.Rows[0][0] != 8 {
			t.Fatalf("read %d near cursor wrap returned %+v", i, resp.Rows)
		}
	}
	g1, g2 := counterOf(r1.srv, server.Queries), counterOf(r2.srv, server.Queries)
	if g1 == 0 || g2 == 0 {
		t.Errorf("round robin stopped spreading across the wrap: %d vs %d", g1, g2)
	}

	// Same property across the full uint64 wrap (Add(1) overflows to 0).
	rt.rr.Store(math.MaxUint64 - 3)
	for i := 0; i < reads; i++ {
		mustQuery(t, c, "SELECT COUNT(*) FROM kv")
	}
}

// TestReadFailsOverWhenAllReplicasEjected: with every replica out of the
// rotation (not-ready, as during mass catch-up after an epoch rotation)
// reads must fail over to the primary and succeed, not error out.
func TestReadFailsOverWhenAllReplicasEjected(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	r1 := startReplica(t, p.http, 1)
	r2 := startReplica(t, p.http, 1)
	rt, addr := startRouter(t, p, r1, r2)

	seed(t, addr, 8)
	waitConverged(t, p, r1)
	waitConverged(t, p, r2)
	waitUntil(t, 10*time.Second, "both replicas in rotation", func() bool { return rt.Healthy() == 2 })

	r1.srv.SetNotReady("test: simulated catch-up")
	r2.srv.SetNotReady("test: simulated catch-up")
	waitUntil(t, 10*time.Second, "all replicas ejected", func() bool { return rt.Healthy() == 0 })

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	primaryBase := counterOf(p.srv, server.Queries)
	const reads = 5
	for i := 0; i < reads; i++ {
		resp := mustQuery(t, c, "SELECT COUNT(*) FROM kv")
		if len(resp.Rows) != 1 || resp.Rows[0][0] != 8 {
			t.Fatalf("read %d with no replicas returned %+v", i, resp.Rows)
		}
	}
	if got := counterOf(p.srv, server.Queries) - primaryBase; got != reads {
		t.Errorf("primary served %d of %d reads with all replicas ejected", got, reads)
	}
	// Ejected replicas must see zero traffic; the primary fallback is a
	// clean route (no failed attempt preceded it), so it does not count
	// as a read failover.
	if g1, g2 := counterOf(r1.srv, server.RejectedNotReady), counterOf(r2.srv, server.RejectedNotReady); g1 != 0 || g2 != 0 {
		t.Errorf("ejected replicas were still offered reads: %d, %d", g1, g2)
	}
}

// TestFollowerRejectsOversizedCheckpoint: a stub primary advertising a
// checkpoint past MaxBlobBytes must be rejected with the typed
// ErrBlobTooLarge before any body copy, instead of the replica trying to
// buffer it all.
func TestFollowerRejectsOversizedCheckpoint(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Wal-Epoch", "7")
		w.Header().Set("Content-Length", strconv.FormatInt(MaxBlobBytes+1, 10))
		w.WriteHeader(http.StatusOK)
		// Write nothing: the client must reject on the advertised size
		// without waiting for (or reading) the body.
	}))
	defer stub.Close()

	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{ReadOnly: true})
	defer srv.Abort()
	f := NewFollower(srv, FollowerOptions{PrimaryHTTP: stub.Listener.Addr().String()})

	_, epoch, err := f.fetchBlob("/wal/checkpoint?shard=0")
	if !errors.Is(err, ErrBlobTooLarge) {
		t.Fatalf("oversized checkpoint: got %v, want ErrBlobTooLarge", err)
	}
	if epoch != 7 {
		t.Errorf("epoch = %d, want 7 (header parsed before the size reject)", epoch)
	}

	// A small artifact still fetches fine through the bounded path.
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Wal-Epoch", "7")
		w.Write([]byte("payload"))
	}))
	defer ok.Close()
	f2 := NewFollower(srv, FollowerOptions{PrimaryHTTP: ok.Listener.Addr().String()})
	raw, _, err := f2.fetchBlob("/wal/registry")
	if err != nil || string(raw) != "payload" {
		t.Fatalf("small blob: raw=%q err=%v", raw, err)
	}
}

// TestReplicaPullsRecordLargerThanOneRead: a WAL record longer than the
// follower's read size arrives torn in every read of that size. The
// follower must ask again for the whole frame instead of re-reading the
// same torn prefix forever. A request line is capped below the read size,
// so the record is committed on the primary's cluster in process.
func TestReplicaPullsRecordLargerThanOneRead(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 1)
	r := startReplica(t, p.http, 1)

	cl, err := server.Dial(p.tcp)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	mustQuery(t, cl, "CREATE TABLE kv (k, grp, val) CAPACITY 40000")
	_, _, before, _, _ := p.store.StreamState()
	vals := make([]string, 36000)
	for i := range vals {
		vals[i] = fmt.Sprintf("(%d, %d, %d)", i, i%4, 1e18+i*10)
	}
	if _, _, err := sql.Execute(p.srv.Cluster(), "INSERT INTO kv VALUES "+strings.Join(vals, ", "), sql.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	_, _, after, _, _ := p.store.StreamState()
	if frame := after[0].Off - before[0].Off; frame <= readBytes {
		t.Fatalf("the INSERT's record is %d bytes, want more than one %d-byte read", frame, readBytes)
	}
	waitConverged(t, p, r)
}

// TestFollowerKeepsFramesAppliedBeforeABadOne: a stub primary serves one
// valid statement record followed by a corrupt frame. The round fails, but
// the record before the bad frame is applied, so the follower's position
// must move past it: a retry from the old offset would apply it again (an
// INSERT lands twice, a CREATE wedges the shard).
func TestFollowerKeepsFramesAppliedBeforeABadOne(t *testing.T) {
	src := "INSERT INTO kv VALUES (7)"
	payload := append([]byte{1, 0, byte(len(src))}, src...) // statement record, no flags
	wal := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	wal = binary.LittleEndian.AppendUint32(wal, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	wal = append(wal, payload...)
	first := int64(len(wal))
	wal = append(wal, 4, 0, 0, 0, 0, 0, 0, 0, 'b', 'a', 'd', '!') // checksum mismatch
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		off, _ := strconv.Atoi(r.URL.Query().Get("off"))
		w.Write(wal[off:])
	}))
	defer stub.Close()

	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sql.Execute(c, "CREATE TABLE kv (k)", sql.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{ReadOnly: true})
	defer srv.Abort()
	f := NewFollower(srv, FollowerOptions{PrimaryHTTP: stub.Listener.Addr().String()})
	f.pos = []durable.ShardPosition{{Seg: 1}}
	f.applied = make([]shardApplied, 1)

	for round := 1; round <= 2; round++ {
		if _, err := f.pullShard(0, 1<<16); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("round %d: err %v, want ErrCorrupt", round, err)
		}
		if _, pos, _ := f.Status(); pos[0] != (durable.ShardPosition{Seg: 1, Off: first}) {
			t.Fatalf("round %d: position %+v, want seg 1 off %d", round, pos[0], first)
		}
		res, _, err := sql.Execute(c, "SELECT COUNT(*) FROM kv", sql.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Rows[0][0]; n != 1 {
			t.Fatalf("round %d: %d rows, want the record applied once", round, n)
		}
	}
}
