package durable

import (
	"sync"
	"testing"

	"rcnvm/internal/stats"
)

// walInsert is the record of a single-row INSERT, as the sql layer logs a
// statement by its source text.
var walInsert = encodeStatement(nil, "INSERT INTO t VALUES (4242, 2, 12726)", false, false)

// BenchmarkWAL times one shard log's commit path, a record an op, in
// 8 MiB segments:
//
//   - append: one 1-row INSERT record under SyncInterval at 5 ms, the
//     durable_write workload's policy: the frame, the write and the
//     counters, with the fsync in the background;
//   - group: the same under SyncAlways from 8 appenders, each appending
//     under a shared lock — the shard's statement lock — and waiting for
//     its fsync outside it, all behind the one flusher; fsyncs/op is the
//     share of an fsync each record costs;
//   - sync_always: one appender under SyncAlways, waiting out an fsync per
//     record.
func BenchmarkWAL(b *testing.B) {
	open := func(b *testing.B, policy SyncPolicy) (*Log, *stats.Counters) {
		ctr := stats.NewCounters(&Family)
		l, err := openLog(b.TempDir(), 1, 1, 0, policy, 8<<20, ctr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { l.Close() })
		return l, ctr
	}
	b.Run("append", func(b *testing.B) {
		l, _ := open(b, SyncInterval)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(walInsert); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group", func(b *testing.B) {
		const appenders = 8
		l, ctr := open(b, SyncAlways)
		var stmtLock sync.Mutex
		var wg sync.WaitGroup
		errs := make(chan error, appenders)
		b.ReportAllocs()
		b.ResetTimer()
		for g := 0; g < appenders; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					stmtLock.Lock()
					wait, err := l.Append(walInsert)
					stmtLock.Unlock()
					if err == nil {
						err = wait()
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}((b.N + g) / appenders)
		}
		wg.Wait()
		b.StopTimer()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ctr.Snapshot()[CtrWalFsyncs])/float64(b.N), "fsyncs/op")
	})
	b.Run("sync_always", func(b *testing.B) {
		l, _ := open(b, SyncAlways)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wait, err := l.Append(walInsert)
			if err == nil {
				err = wait()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
