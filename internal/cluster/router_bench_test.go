package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
)

// hopQuery is the point SELECT the router-hop fixture forwards.
const hopQuery = "SELECT val FROM t WHERE id = 7"

// hopFixture serves a 64-row table from one in-process backend behind a
// router and returns a client session on the router's TCP front end: the
// statement crosses loopback both ways, client to router and router to
// backend.
func hopFixture(tb testing.TB) *server.Client {
	c, err := shard.Open(engine.DualAddress, 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	srv := server.NewCluster(c, server.Options{})
	tb.Cleanup(srv.Abort)
	var ins strings.Builder
	ins.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < 64; i++ {
		if i > 0 {
			ins.WriteByte(',')
		}
		fmt.Fprintf(&ins, "(%d,%d,%d)", i, i%8, i*3)
	}
	for _, q := range []string{"CREATE TABLE t (id, grp, val) CAPACITY 64", ins.String()} {
		if resp := srv.Do(&server.Request{Query: q}); resp.Error != nil {
			tb.Fatalf("%.40s: %v", q, resp.Error)
		}
	}
	addr, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	rt := NewRouter(RouterOptions{Primary: Backend{TCP: addr.String()}})
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	raddr, err := rt.ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := server.Dial(raddr.String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// BenchmarkRouterHop times a point SELECT on a 64-row table sent through a
// router's TCP front end to one in-process backend, over loopback both
// ways: the client's session to the router, and the router's to the
// backend. Less server's BenchmarkServe/point/tcp, which is the same
// statement on the backend's own front end, it is what the hop costs.
func BenchmarkRouterHop(b *testing.B) {
	cl := hopFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Query(hopQuery); err != nil {
			b.Fatal(err)
		}
	}
}
