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
	s, _ := serveFixture(t, 64)
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
