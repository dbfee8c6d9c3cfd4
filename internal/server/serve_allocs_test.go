// The race detector makes sync.Pool drop items at random, so the engine's
// recycled buffers allocate there and an allocation count means nothing.

//go:build !race

package server

import "testing"

// TestPointDoAllocs holds the in-process cost of a point statement: a
// warm point SELECT through Server.Do, with no deadline, allocates no
// channel, closure or goroutine for its execution, so its allocations are
// the plan-cache hit, the engine's result and the reply.
func TestPointDoAllocs(t *testing.T) {
	s, _ := serveFixture(t, 64, 64, Options{})
	req := &Request{Query: pointQuery}
	s.Do(req) // fill the plan cache
	const ceiling = 8
	allocs := testing.AllocsPerRun(200, func() {
		if resp := s.Do(req); resp.Error != nil {
			t.Fatal(resp.Error)
		}
	})
	if allocs > ceiling {
		t.Fatalf("point Server.Do allocates %.1f/op, want <= %d", allocs, ceiling)
	}
}

// TestTimedDoAllocs holds the cost of a timed statement: BenchmarkServe's
// timed request, a warm point SELECT with timing through Server.Do. Its
// two replays run on a pooled system and render no sim.Result, so past an
// untimed point statement it allocates the Timing, its row-only stream
// and the statement's captured trace.
func TestTimedDoAllocs(t *testing.T) {
	s, _ := serveFixture(t, 64, 64, Options{})
	req := &Request{Query: pointQuery, Timing: true}
	s.Do(req) // fill the plan cache, build the replay system
	const ceiling = 18
	allocs := testing.AllocsPerRun(200, func() {
		if resp := s.Do(req); resp.Error != nil {
			t.Fatal(resp.Error)
		}
	})
	if allocs > ceiling {
		t.Fatalf("timed point Server.Do allocates %.1f/op, want <= %d", allocs, ceiling)
	}
}

// TestPointTCPAllocs holds the cost of a point statement over the wire: a
// warm point SELECT on one loopback session, counting both ends — the
// client's request and reply, the server's session and Server.Do. The
// codec encodes into per-connection buffers, so past Do the wire adds the
// decoded request and the client's decoded reply.
func TestPointTCPAllocs(t *testing.T) {
	_, addr := serveFixture(t, 64, 64, Options{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(pointQuery); err != nil { // fill the plan cache
		t.Fatal(err)
	}
	const ceiling = 15
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Query(pointQuery); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("point SELECT over TCP allocates %.1f/op, want <= %d", allocs, ceiling)
	}
}
