// The race detector makes sync.Pool drop items at random, so the engine's
// recycled buffers allocate there and an allocation count means nothing.

//go:build !race

package cluster

import "testing"

// TestRouterHopAllocs holds the cost of a point statement through the
// router, on BenchmarkRouterHop's fixture: a warm point SELECT on one
// loopback session to the router, counting every end — the client, the
// router's session and its forward, and the backend's session and
// Server.Do.
func TestRouterHopAllocs(t *testing.T) {
	cl := hopFixture(t)
	if _, err := cl.Query(hopQuery); err != nil { // fill the plan cache, dial the backend
		t.Fatal(err)
	}
	const ceiling = 25
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cl.Query(hopQuery); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("point SELECT through the router allocates %.1f/op, want <= %d", allocs, ceiling)
	}
}
