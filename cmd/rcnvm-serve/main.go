// Command rcnvm-serve runs the concurrent SQL query service over the
// functional RC-NVM database engine.
//
// Serve mode (default) listens on a newline-delimited-JSON TCP front end
// and an HTTP front end, over one shared dual-addressable database:
//
//	$ rcnvm-serve -tcp :7070 -http :7071
//	$ printf '{"query":"SELECT COUNT(*) FROM load"}\n' | nc localhost 7070
//	$ curl -d '{"query":"SELECT SUM(val) FROM load WHERE grp = 3","timing":true}' localhost:7071/query
//	$ curl localhost:7071/metrics
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// queries before closing connections.
//
// Resilience knobs: -query-timeout bounds every statement (clients get a
// retryable deadline_exceeded error), and the -fault-* flags enable the
// deterministic fault-injection layer so uncorrectable memory errors
// surface end to end as typed memory_error responses while /metrics
// reports the ECC accounting:
//
//	$ rcnvm-serve -query-timeout 2s -fault-rber 1e-4 -fault-seed 7
//
// Observability: GET /metrics serves the Prometheus text format (server
// counters, latency histogram with quantiles, per-bank telemetry), the
// one view of every number the server reports. A request with
// "trace": true gets a Chrome trace-event document back on the response
// (save it and open in Perfetto); -trace-every samples statements
// server-side into -trace-ndjson; -pprof-addr serves net/http/pprof and
// expvar on a separate port:
//
//	$ rcnvm-serve -trace-every 100 -trace-ndjson traces.ndjson -pprof-addr localhost:6060
//	$ curl localhost:7071/metrics
//
// Cluster modes wire several rcnvm-serve processes into a replicated
// serving set (see DESIGN.md, "Replication & failover"):
//
//	$ rcnvm-serve -data-dir ./data -tcp :7070 -http :7071             # primary
//	$ rcnvm-serve -replica localhost:7071 -tcp :7072 -http :7073      # read replica
//	$ rcnvm-serve -route -primary localhost:7070@localhost:7071 \
//	    -replicas localhost:7072@localhost:7073 -tcp :7470 -http :7471
//
// A replica streams the primary's WAL over /wal/* and applies it through
// the crash-recovery code path; its /readyz stays 503 until it has
// caught up, and GET /checksum lets operators byte-compare replica state
// against the primary. The router speaks the same NDJSON/HTTP protocols
// as a single server: writes go to the primary (failing fast with the
// retryable primary_unavailable when it is down), reads round-robin
// across healthy replicas and fail over invisibly when one dies.
//
// In every serving mode, the first SIGINT/SIGTERM drains gracefully; a
// second signal aborts the drain immediately with a non-zero exit.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rcnvm/internal/cluster"
	"rcnvm/internal/durable"
	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
)

func main() {
	var (
		tcpAddr  = flag.String("tcp", ":7070", "TCP (NDJSON) listen address")
		httpAddr = flag.String("http", ":7071", "HTTP listen address (\"\" disables)")
		workers  = flag.Int("workers", 0, "concurrent statements (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "admission queue capacity (0 = 4x workers)")
		shards   = flag.Int("shards", 1, "independent engine+memory channels; queries scatter-gather across them")

		dataDir  = flag.String("data-dir", "", "durability directory: per-shard write-ahead log + checkpoints; kill -9 loses nothing acknowledged (\"\" = volatile)")
		fsyncPol = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always (group commit), interval, none")
		walSegMB = flag.Int("wal-segment-mb", 8, "WAL segment rotation size in MiB with -data-dir")

		replicaOf    = flag.String("replica", "", "run as a read replica of the primary at this HTTP address: stream its WAL, reject client writes, /readyz 503 until caught up")
		routeMode    = flag.Bool("route", false, "run as a routing front end over -primary/-replicas instead of serving an engine")
		primarySpec  = flag.String("primary", "", "router mode: the primary backend as tcpAddr@httpAddr")
		replicaSpecs = flag.String("replicas", "", "router mode: comma-separated replica backends, each tcpAddr@httpAddr")

		queryTimeout = flag.Duration("query-timeout", 0, "per-statement deadline (0 = none; requests can only tighten it)")
		traceEvery   = flag.Int("trace-every", 0, "server-side sample every n-th statement for span tracing (0 = explicit trace requests only)")
		traceNDJSON  = flag.String("trace-ndjson", "", "append sampled traces to this file as NDJSON Chrome trace events (\"-\" = stderr)")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof and expvar on this address (\"\" disables)")
		faultRBER    = flag.Float64("fault-rber", 0, "transient raw bit error rate on stored data (0 = fault injection off)")
		faultSeed    = flag.Uint64("fault-seed", 1, "fault-injection seed (deterministic per seed)")
		wearThresh   = flag.Int64("fault-wear-threshold", 0, "per-subarray writes before wear-out stuck-at cells appear (0 = no wear faults)")
		wearRate     = flag.Float64("fault-wear-rate", 0, "asymptotic per-word stuck-at probability once fully worn")
	)
	flag.Parse()

	if *routeMode {
		// A router owns no engine; an engine flag given here would be dropped
		// and the operator left believing in a durable or sharded node.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "route", "primary", "replicas", "tcp", "http":
			default:
				fatal(fmt.Errorf("-route serves no engine: -%s has no effect on a router (set it on the primary or a replica)", f.Name))
			}
		})
		runRouter(*primarySpec, *replicaSpecs, *tcpAddr, *httpAddr)
		return
	}

	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be >= 1, got %d", *shards))
	}
	faultsOn := *faultRBER > 0 || (*wearThresh > 0 && *wearRate > 0)
	if *dataDir != "" && faultsOn {
		// WAL replay re-executes statements; injected memory errors would
		// not reproduce, so a recovered database could silently diverge.
		fatal(fmt.Errorf("-data-dir cannot be combined with fault injection (replay would not be deterministic)"))
	}
	if *replicaOf != "" {
		switch {
		case *dataDir != "":
			fatal(fmt.Errorf("-replica is volatile: it replays the primary's WAL instead of logging its own (-data-dir belongs on the primary)"))
		case faultsOn:
			fatal(fmt.Errorf("-replica cannot inject faults: applied records would diverge from the primary"))
		}
	}
	cl, err := shard.Open(engine.DualAddress, *shards, 0)
	if err != nil {
		fatal(err)
	}
	var store *durable.Store
	if *dataDir != "" {
		pol, err := durable.ParseSyncPolicy(*fsyncPol)
		if err != nil {
			fatal(err)
		}
		if store, err = durable.Open(*dataDir, engine.DualAddress, *shards, durable.Options{
			Fsync:        pol,
			SegmentBytes: int64(*walSegMB) << 20,
		}); err != nil {
			fatal(err)
		}
	}
	if faultsOn {
		cl.EnableFaults(fault.Config{
			Enabled:             true,
			Seed:                *faultSeed,
			RBER:                *faultRBER,
			WearThresholdWrites: *wearThresh,
			WearStuckRate:       *wearRate,
		})
		fmt.Printf("rcnvm-serve: fault injection on (seed=%d rber=%g wear=%d@%g); uncorrectable reads surface as memory_error\n",
			*faultSeed, *faultRBER, *wearThresh, *wearRate)
	}
	if *shards > 1 {
		fmt.Printf("rcnvm-serve: %d shards (scatter-gather; rcnvm_shard_bank_* on /metrics give per-shard series)\n", *shards)
	}

	var traceSink io.Writer
	switch *traceNDJSON {
	case "":
	case "-":
		traceSink = os.Stderr
	default:
		f, err := os.OpenFile(*traceNDJSON, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		traceSink = f
	}

	srv := server.NewCluster(cl, server.Options{
		Workers:      *workers,
		Queue:        *queue,
		QueryTimeout: *queryTimeout,
		TraceEvery:   *traceEvery,
		TraceSink:    traceSink,
		Logger:       slog.New(slog.NewTextHandler(os.Stderr, nil)),
		Durable:      store,
		ReadOnly:     *replicaOf != "",
	})

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	// Listeners come up not-ready when there is state to rebuild first, so
	// routers and probes see an honest 503 instead of a connection refused
	// or — worse — answers from half-replayed state.
	var fol *cluster.Follower
	switch {
	case *replicaOf != "":
		srv.SetNotReady("replica catch-up")
		fol = cluster.NewFollower(srv, cluster.FollowerOptions{
			PrimaryHTTP: *replicaOf,
			Logger:      slog.New(slog.NewTextHandler(os.Stderr, nil)),
		})
	case store != nil:
		srv.SetNotReady("wal recovery")
	default:
		ensureLoadTable(cl)
	}

	addr, err := srv.ListenTCP(*tcpAddr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rcnvm-serve: TCP (NDJSON) on %s\n", addr)
	if *httpAddr != "" {
		haddr, err := srv.ListenHTTP(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rcnvm-serve: HTTP on %s (POST /query, GET /metrics, GET /readyz)\n", haddr)
	}

	if fol != nil {
		fol.Start()
		fmt.Printf("rcnvm-serve: read replica of %s: catching up (/readyz stays 503 until caught up; writes get read_only_replica)\n", *replicaOf)
	} else if store != nil {
		// Recovery runs after the listeners are up: /healthz answers (the
		// process is alive) and /readyz honestly reports 503 "wal recovery"
		// while the log replays.
		rs, err := store.Recover(cl)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rcnvm-serve: durable in %s (fsync=%s, epoch %d): checkpoint=%v, %d records replayed, %d torn bytes dropped in %v\n",
			*dataDir, *fsyncPol, rs.Epoch, rs.Checkpoint, rs.Records, rs.TornBytes, rs.Elapsed.Round(time.Microsecond))
		ensureLoadTable(cl)
		srv.SetReady()
	}

	drainOnSignal(func(ctx context.Context) error {
		if fol != nil {
			fol.Stop()
		}
		return srv.Shutdown(ctx)
	})
	closeStore(store)
	fmt.Println("rcnvm-serve: drained, bye")
}

// runRouter serves the routing front end: no engine of its own, just the
// classification/forwarding layer over one primary and N replicas.
func runRouter(primarySpec, replicaSpecs, tcpAddr, httpAddr string) {
	if primarySpec == "" {
		fatal(fmt.Errorf("-route requires -primary tcpAddr@httpAddr"))
	}
	pb, err := cluster.ParseBackend(primarySpec)
	if err != nil {
		fatal(err)
	}
	reps, err := cluster.ParseBackends(replicaSpecs)
	if err != nil {
		fatal(err)
	}
	rt := cluster.NewRouter(cluster.RouterOptions{
		Primary:  pb,
		Replicas: reps,
		Logger:   slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	addr, err := rt.ListenTCP(tcpAddr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("rcnvm-serve: routing TCP (NDJSON) on %s -> primary %s, %d replicas\n", addr, pb, len(reps))
	if httpAddr != "" {
		haddr, err := rt.ListenHTTP(httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("rcnvm-serve: routing HTTP on %s (POST /query, GET /metrics, GET /cluster/metrics)\n", haddr)
	}
	drainOnSignal(rt.Shutdown)
	fmt.Println("rcnvm-serve: drained, bye")
}

// ensureLoadTable creates the demo/load table every front end can query
// immediately — through the scatter executor, so a multi-shard cluster
// registers it for hash routing. A recovered data directory already has
// it (the CREATE is in the checkpoint or WAL); a replica never creates
// it (the primary's CREATE arrives through the WAL stream).
func ensureLoadTable(cl *shard.Cluster) {
	if _, ok := cl.Shard(0).Table("load"); ok {
		return
	}
	if _, _, err := sql.Execute(cl, "CREATE TABLE load (id, grp, val) CAPACITY 1048576", sql.ExecOptions{}); err != nil {
		fatal(err)
	}
}

// drainOnSignal blocks until SIGINT/SIGTERM, then drains with a 10s
// deadline. A second signal aborts the drain immediately: a wedged or
// slow drain must never strand an operator's ^C ^C, so the process exits
// non-zero right away (with -fsync always nothing acknowledged is lost).
func drainOnSignal(drain func(context.Context) error) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("rcnvm-serve: draining (signal again to force quit)...")
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- drain(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "rcnvm-serve: force quit, drain aborted")
		os.Exit(130)
	}
}

// closeStore force-syncs and closes the durability store (nil-safe). Runs
// after Shutdown, whose clean-drain checkpoint has already truncated the
// WAL.
func closeStore(store *durable.Store) {
	if store == nil {
		return
	}
	if err := store.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rcnvm-serve: wal close:", err)
	}
}

// servePprof serves the Go diagnostics endpoints (net/http/pprof and
// expvar) on their own mux and port, kept off the query service's mux so
// profiling access can be firewalled separately.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	fmt.Printf("rcnvm-serve: pprof on %s (/debug/pprof/, /debug/vars)\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "rcnvm-serve: pprof:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcnvm-serve:", err)
	os.Exit(1)
}
