// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus ablation benchmarks for the design choices
// called out in DESIGN.md. Simulation benchmarks run at the small scale so
// `go test -bench=.` completes quickly; use cmd/rcnvm-bench for the
// full-scale reproduction.
package rcnvm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcnvm/internal/circuit"
	"rcnvm/internal/config"
	"rcnvm/internal/engine"
	"rcnvm/internal/experiments"
	"rcnvm/internal/imdb"
	"rcnvm/internal/memctrl"
	"rcnvm/internal/server"
	"rcnvm/internal/shard"
	"rcnvm/internal/sql"
	"rcnvm/internal/workload"
)

// BenchmarkServerThroughput measures end-to-end queries/sec through the
// query service — in-process server, real TCP loopback clients — at 1, 8
// and 64 concurrent sessions. Each session alternates a point SELECT on
// its own id with an aggregate scan, the served OLTP+OLAP mix.
func BenchmarkServerThroughput(b *testing.B) {
	for _, sessions := range []int{1, 8, 64} {
		sessions := sessions
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			db, err := engine.Open()
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sql.Execute(shard.Wrap(db), "CREATE TABLE bench (id, grp, val) CAPACITY 4096", sql.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < 1024; lo += 128 {
				ins := "INSERT INTO bench VALUES "
				for i := lo; i < lo+128; i++ {
					if i > lo {
						ins += ","
					}
					ins += fmt.Sprintf("(%d,%d,%d)", i, i%8, i*3)
				}
				if _, _, err := sql.Execute(shard.Wrap(db), ins, sql.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			srv := server.NewCluster(shard.Wrap(db), server.Options{Queue: 2 * sessions})
			addr, err := srv.ListenTCP("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			clients := make([]*server.Client, sessions)
			for i := range clients {
				if clients[i], err = server.Dial(addr.String()); err != nil {
					b.Fatal(err)
				}
				defer clients[i].Close()
			}

			var next atomic.Int64
			next.Store(-1)
			b.ResetTimer()
			var wg sync.WaitGroup
			errc := make(chan error, sessions)
			for _, c := range clients {
				wg.Add(1)
				go func(c *server.Client) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i >= int64(b.N) {
							return
						}
						q := fmt.Sprintf("SELECT val FROM bench WHERE id = %d", i%1024)
						if i%2 == 1 {
							q = fmt.Sprintf("SELECT SUM(val), COUNT(*) FROM bench WHERE grp = %d", i%8)
						}
						if _, err := c.Query(q); err != nil {
							errc <- err
							return
						}
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkServerBatch measures end-to-end statements/sec through one TCP
// session at batch sizes 1, 8 and 32, on the point-statement OLTP hot path
// (point SELECT alternating with point UPDATE). The table is kept small
// (32 rows) so per-statement engine time stays minor and the measurement
// isolates what batching amortizes — the round trip, the pool admission
// and the lock round per statement. A batch pays each of those once for
// the whole group, so throughput scales well past 2x by size 32. bench/
// measures the same path with a checked answer (server.batch16_us_per_stmt
// against the single-statement rungs of a traced oltp_point run).
func BenchmarkServerBatch(b *testing.B) {
	const tableRows = 32
	for _, size := range []int{1, 8, 32} {
		size := size
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			db, err := engine.Open()
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sql.Execute(shard.Wrap(db), "CREATE TABLE bench (id, grp, val) CAPACITY 4096", sql.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
			ins := "INSERT INTO bench VALUES "
			for i := 0; i < tableRows; i++ {
				if i > 0 {
					ins += ","
				}
				ins += fmt.Sprintf("(%d,%d,%d)", i, i%8, i*3)
			}
			if _, _, err := sql.Execute(shard.Wrap(db), ins, sql.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
			srv := server.NewCluster(shard.Wrap(db), server.Options{})
			addr, err := srv.ListenTCP("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv.Shutdown(ctx)
			}()
			c, err := server.Dial(addr.String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			batch := make([]string, 0, size)
			b.ResetTimer()
			for issued := 0; issued < b.N; {
				n := size
				if rem := b.N - issued; rem < n {
					n = rem
				}
				batch = batch[:0]
				for j := 0; j < n; j++ {
					id := (issued + j) % tableRows
					if (issued+j)%2 == 0 {
						batch = append(batch, fmt.Sprintf("SELECT val FROM bench WHERE id = %d", id))
					} else {
						batch = append(batch, fmt.Sprintf("UPDATE bench SET val = %d WHERE id = %d", id*7, id))
					}
				}
				if size == 1 {
					if _, err := c.Query(batch[0]); err != nil {
						b.Fatal(err)
					}
				} else {
					rs, err := c.Batch(batch)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range rs {
						if r.Error != nil {
							b.Fatal(r.Error)
						}
					}
				}
				issued += n
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "stmts/s")
		})
	}
}

// BenchmarkFig04AreaModel evaluates the Figure 4 area-overhead sweep.
func BenchmarkFig04AreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := circuit.Sweep(nil)
		if len(pts) != 7 {
			b.Fatal("sweep size wrong")
		}
	}
	b.ReportMetric(circuit.DefaultAreaModel().RCNVMOverhead(512)*100, "%area@512")
}

// BenchmarkFig05LatencyModel evaluates the Figure 5 latency-overhead sweep.
func BenchmarkFig05LatencyModel(b *testing.B) {
	m := circuit.DefaultLatencyModel()
	for i := 0; i < b.N; i++ {
		for n := 16; n <= 1200; n += 16 {
			_ = m.Overhead(n)
		}
	}
	b.ReportMetric(m.Overhead(512)*100, "%lat@512")
}

// BenchmarkFig17Micro runs the eight micro-benchmarks on the three Figure 17
// systems.
func BenchmarkFig17Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.MicroBench(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		// col-read-L2 (index 6): RC-NVM (series 0) vs DRAM (series 2).
		b.ReportMetric(tab.Series[2].Values[6]/tab.Series[0].Values[6], "colL2-dram/rc")
	}
}

// BenchmarkFig18Queries runs Q1-Q13 on all four systems and also yields the
// Figure 19/20/21 views.
func BenchmarkFig18Queries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.QueryBench(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		var rc, dram float64
		for q := range res.Exec.XLabels {
			rc += res.Exec.Series[0].Values[q]
			dram += res.Exec.Series[3].Values[q]
		}
		b.ReportMetric(dram/rc, "dram/rc-avg")
	}
}

// BenchmarkFig22Sensitivity sweeps the NVM cell latency.
func BenchmarkFig22Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.LatencySensitivity(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Series[0].Values[4]/tab.Series[0].Values[0], "200ns/12.5ns")
	}
}

// BenchmarkFig23GroupCaching sweeps the group caching depth on Q14/Q15.
func BenchmarkFig23GroupCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.GroupCaching(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Series[0].Values[0]/tab.Series[0].Values[4], "q14-speedup@128")
	}
}

// benchQuery runs one query on one system inside a b.Run sub-benchmark.
func benchQuery(b *testing.B, sys config.System, id string, p workload.Params) {
	b.Helper()
	spec, ok := workload.QueryByID(id)
	if !ok {
		b.Fatalf("unknown query %s", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := workload.Run(sys, spec, p)
		if err != nil {
			b.Fatal(err)
		}
		last = res.MCycles()
	}
	b.ReportMetric(last, "Mcycles")
}

// BenchmarkQueries runs every Table 2 query on every system as
// sub-benchmarks (go test -bench=BenchmarkQueries/Q6).
func BenchmarkQueries(b *testing.B) {
	p := workload.SmallParams()
	p.GroupLines = 64
	for _, sys := range config.All() {
		for _, q := range workload.Queries() {
			sys, q := sys, q
			b.Run(q.ID+"/"+sys.Name, func(b *testing.B) { benchQuery(b, sys, q.ID, p) })
		}
	}
	for _, q := range workload.GroupQueries() {
		q := q
		b.Run(q.ID+"/RC-NVM", func(b *testing.B) { benchQuery(b, config.RCNVM(), q.ID, p) })
	}
}

// BenchmarkAblationLayout compares the two intra-chunk layouts for
// column-direction scans (the Figure 13 design choice).
func BenchmarkAblationLayout(b *testing.B) {
	p := workload.SmallParams()
	for _, m := range workload.MicroSpecs() {
		if m.ID != "col-read-L1" && m.ID != "col-read-L2" {
			continue
		}
		m := m
		b.Run(m.ID, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := workload.RunMicro(config.RCNVM(), m, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.MCycles()
			}
			b.ReportMetric(last, "Mcycles")
		})
	}
}

// BenchmarkAblationBufferSwitch quantifies the §3 restriction that row and
// column buffers cannot be active together, against an idealized device
// with independent per-orientation buffers.
func BenchmarkAblationBufferSwitch(b *testing.B) {
	p := workload.SmallParams()
	for _, ideal := range []bool{false, true} {
		ideal := ideal
		name := "restricted"
		if ideal {
			name = "ideal-dual-buffers"
		}
		b.Run(name, func(b *testing.B) {
			sys := config.RCNVM()
			sys.Device.IdealDualBuffers = ideal
			var last float64
			for i := 0; i < b.N; i++ {
				// Q1 mixes column scans with row fetches: the
				// orientation-switch-heavy case.
				spec, _ := workload.QueryByID("Q1")
				res, err := workload.Run(sys, spec, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.MCycles()
			}
			b.ReportMetric(last, "Mcycles")
		})
	}
}

// BenchmarkAblationScheduler compares FR-FCFS against plain FCFS.
func BenchmarkAblationScheduler(b *testing.B) {
	p := workload.SmallParams()
	for _, pol := range []memctrl.Policy{memctrl.FRFCFS, memctrl.FCFS} {
		pol := pol
		name := "fr-fcfs"
		if pol == memctrl.FCFS {
			name = "fcfs"
		}
		b.Run(name, func(b *testing.B) {
			sys := config.DRAM()
			sys.MemPolicy = pol
			var last float64
			for i := 0; i < b.N; i++ {
				spec, _ := workload.QueryByID("Q3")
				res, err := workload.Run(sys, spec, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.MCycles()
			}
			b.ReportMetric(last, "Mcycles")
		})
	}
}

// BenchmarkAblationPinning compares group caching with and without cache
// pinning.
func BenchmarkAblationPinning(b *testing.B) {
	p := workload.SmallParams()
	p.GroupLines = 128
	for _, noPin := range []bool{false, true} {
		noPin := noPin
		name := "pinned"
		if noPin {
			name = "unpinned"
		}
		b.Run(name, func(b *testing.B) {
			pp := p
			pp.DisablePinning = noPin
			var last float64
			for i := 0; i < b.N; i++ {
				spec, _ := workload.QueryByID("Q14")
				res, err := workload.Run(config.RCNVM(), spec, pp)
				if err != nil {
					b.Fatal(err)
				}
				last = res.MCycles()
			}
			b.ReportMetric(last, "Mcycles")
		})
	}
}

// BenchmarkAblationBinPackRotation measures subarray usage with and without
// chunk rotation (§4.5.3).
func BenchmarkAblationBinPackRotation(b *testing.B) {
	geom := config.RCNVM().Device.Geom
	place := func(alloc *imdb.NVMAllocator) int {
		for i, n := range []int{40_000, 70_000, 30_000, 90_000, 20_000} {
			fields := 10 + i*3
			t := imdb.NewTable(imdb.Uniform("t", fields), n)
			if _, err := alloc.Place(t, imdb.ColMajor); err != nil {
				b.Fatal(err)
			}
		}
		return alloc.SubarraysUsed()
	}
	var bins int
	for i := 0; i < b.N; i++ {
		bins = place(imdb.NewNVMAllocator(geom))
	}
	b.ReportMetric(float64(bins), "subarrays")
}

// BenchmarkTechnologies compares the RC architecture across crossbar cell
// technologies (the §2.3 extension claim).
func BenchmarkTechnologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.TechnologyComparison(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Series[3].Values[0]/tab.Series[1].Values[0], "dram/rc-pcm")
	}
}

// BenchmarkOLXPMix runs the mixed OLTP+OLAP scenario on all systems.
func BenchmarkOLXPMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.OLXPMix(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tab.Series[3].Values[0]/tab.Series[0].Values[0], "dram/rc")
	}
}

// BenchmarkEnergy runs the energy-model extension.
func BenchmarkEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.EnergyComparison(experiments.ScaleSmall, 1)
		if err != nil {
			b.Fatal(err)
		}
		var rc, dram float64
		for q := range tab.XLabels {
			rc += tab.Series[0].Values[q]
			dram += tab.Series[3].Values[q]
		}
		b.ReportMetric(dram/rc, "dram/rc-energy")
	}
}

// BenchmarkAblationPAX compares the PAX software hybrid on DRAM against
// RC-NVM hardware column access (the §8 related-work comparison): column
// scans over the same table shape.
func BenchmarkAblationPAX(b *testing.B) {
	p := workload.SmallParams()
	// Shrink the caches so the small-scale tables are memory-resident
	// (the full-scale tables exceed the 8 MB L3; see EXPERIMENTS.md).
	shrink := func(sys config.System) config.System {
		sys.Cache.L2Sets = 64
		sys.Cache.L3Sets = 256
		return sys
	}
	cases := []struct {
		name   string
		sys    config.System
		layout imdb.Layout
	}{
		{"dram-rowstore", shrink(config.DRAM()), imdb.RowMajor},
		{"dram-pax", shrink(config.DRAM()), imdb.PAX},
		{"rcnvm-colmajor", shrink(config.RCNVM()), imdb.ColMajor},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				res, err := workload.RunMicro(tc.sys,
					workload.MicroSpec{ID: "col-read", Layout: tc.layout, Column: true}, p)
				if err != nil {
					b.Fatal(err)
				}
				last = res.MCycles()
			}
			b.ReportMetric(last, "Mcycles")
		})
	}
}
