package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rcnvm/internal/stats"
)

// readSegment decodes every whole record in one segment file, returning
// the payloads and the byte offset of the last valid frame end.
func readSegment(t *testing.T, path string) (payloads [][]byte, validEnd int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rest := b
	for len(rest) > 0 {
		payload, r, err := DecodeFrame(rest)
		if errors.Is(err, ErrTorn) {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		payloads = append(payloads, payload)
		rest = r
	}
	return payloads, int64(len(b) - len(rest))
}

func TestLogAppendSyncAlways(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	l, err := openLog(dir, 1, 1, 0, SyncAlways, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		wait, err := l.Append(encodeStatement(nil, fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", i), false, false))
		if err != nil {
			t.Fatal(err)
		}
		if wait == nil {
			t.Fatal("SyncAlways append returned nil wait")
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, _ := readSegment(t, filepath.Join(dir, segName(1, 1)))
	if len(payloads) != 10 {
		t.Fatalf("segment holds %d records, want 10", len(payloads))
	}
	if c := ctr.Snapshot(); c[CtrWalAppends] != 10 || c[CtrWalFsyncs] == 0 || c[CtrWalBytes] == 0 {
		t.Fatalf("counters: appends=%d fsyncs=%d bytes=%d", c[CtrWalAppends], c[CtrWalFsyncs], c[CtrWalBytes])
	}
}

// TestLogGroupCommit hammers the log from many goroutines, each
// serializing its append under a shared mutex the way a shard lock
// does, then waiting for durability outside it. Group commit means the
// fsync count must come in well under the append count.
func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	l, err := openLog(dir, 1, 1, 0, SyncAlways, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	var shardMu sync.Mutex // stand-in for the engine's statement lock
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				shardMu.Lock()
				wait, err := l.Append(encodeStatement(nil, fmt.Sprintf("UPDATE kv SET val = %d WHERE k = %d", i, g), false, false))
				shardMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := wait(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, _ := readSegment(t, filepath.Join(dir, segName(1, 1)))
	if want := goroutines * each; len(payloads) != want {
		t.Fatalf("segment holds %d records, want %d", len(payloads), want)
	}
	c := ctr.Snapshot()
	appends, fsyncs := c[CtrWalAppends], c[CtrWalFsyncs]
	if appends != goroutines*each {
		t.Fatalf("appends = %d, want %d", appends, goroutines*each)
	}
	// With 8 writers batching behind one flusher, syncs per append must
	// stay clearly below 1. The bound is loose on purpose: a slow
	// machine batches more, never less.
	if fsyncs >= appends {
		t.Fatalf("no group commit: %d fsyncs for %d appends", fsyncs, appends)
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	// Tiny segment limit so a handful of appends spans several segments.
	l, err := openLog(dir, 1, 1, 0, SyncAlways, 128, ctr)
	if err != nil {
		t.Fatal(err)
	}
	const records = 20
	src := "INSERT INTO kv VALUES (1234567890, 987654321)"
	for i := 0; i < records; i++ {
		wait, err := l.Append(encodeStatement(nil, src, false, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	total, segs := 0, 0
	for _, e := range ents {
		epoch, idx, ok := parseSegName(e.Name())
		if !ok {
			t.Fatalf("unexpected file %q", e.Name())
		}
		if epoch != 1 {
			t.Fatalf("segment %q in epoch %d, want 1", e.Name(), epoch)
		}
		if idx != segs+1 {
			t.Fatalf("segment indices not contiguous: %q after %d segments", e.Name(), segs)
		}
		segs++
		payloads, _ := readSegment(t, filepath.Join(dir, e.Name()))
		total += len(payloads)
	}
	if segs < 2 {
		t.Fatalf("expected rotation across segments, got %d", segs)
	}
	if total != records {
		t.Fatalf("%d records across %d segments, want %d", total, segs, records)
	}
}

func TestLogReopenContinues(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	l, err := openLog(dir, 3, 1, 0, SyncAlways, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := l.Append(encodeStatement(nil, "first", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the validated offset (what Recover computes) and append
	// more; both writes must decode back to back.
	path := filepath.Join(dir, segName(3, 1))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := openLog(dir, 3, 1, fi.Size(), SyncAlways, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	wait, err = l2.Append(encodeStatement(nil, "second", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	payloads, _ := readSegment(t, path)
	if len(payloads) != 2 {
		t.Fatalf("got %d records after reopen, want 2", len(payloads))
	}
	for i, want := range []string{"first", "second"} {
		rec, err := DecodePayload(payloads[i])
		if err != nil || rec.Src != want {
			t.Fatalf("record %d: %q, %v (want %q)", i, rec.Src, err, want)
		}
	}
}

func TestLogRotateToNewEpoch(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	l, err := openLog(dir, 1, 1, 0, SyncAlways, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := l.Append(encodeStatement(nil, "before checkpoint", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(2); err != nil {
		t.Fatal(err)
	}
	wait, err = l.Append(encodeStatement(nil, "after checkpoint", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	old, _ := readSegment(t, filepath.Join(dir, segName(1, 1)))
	cur, _ := readSegment(t, filepath.Join(dir, segName(2, 1)))
	if len(old) != 1 || len(cur) != 1 {
		t.Fatalf("epoch split: old=%d cur=%d records, want 1/1", len(old), len(cur))
	}
}

func TestLogSyncInterval(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	l, err := openLog(dir, 1, 1, 0, SyncInterval, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	wait, err := l.Append(encodeStatement(nil, "interval", false, false))
	if err != nil {
		t.Fatal(err)
	}
	if wait != nil {
		t.Fatal("SyncInterval append returned a wait func; only SyncAlways blocks")
	}
	deadline := time.Now().Add(2 * time.Second)
	for ctr.Snapshot()[CtrWalFsyncs] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	ctr := stats.NewCounters(&Family)
	l, err := openLog(dir, 1, 1, 0, SyncNone, 1<<20, ctr)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(encodeStatement(nil, "late", false, false)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil { // double close is a no-op
		t.Fatal(err)
	}
}
