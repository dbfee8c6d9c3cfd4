package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rcnvm/internal/stats"
)

// SyncPolicy selects when appended WAL records reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways group-commits: every acknowledged statement waits for an
	// fsync that covers its record. Concurrent workers share fsyncs — the
	// flusher goroutine syncs once per batch of pending records, so k
	// statements committing together cost one fsync, not k.
	SyncAlways SyncPolicy = iota
	// SyncInterval acknowledges as soon as the record is written to the
	// OS and fsyncs in the background every syncCadence: a crash can
	// lose up to one cadence of acknowledged statements.
	SyncInterval
	// SyncNone never fsyncs during serving (checkpoints still sync): the
	// OS page cache decides when bytes reach disk. Survives process
	// crashes (kill -9) but not host power loss.
	SyncNone
)

// syncCadence is how often the SyncInterval flusher fsyncs.
const syncCadence = 5 * time.Millisecond

// String names the policy as the -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
}

// ParseSyncPolicy parses a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, interval or none)", s)
}

var errLogClosed = errors.New("durable: wal is closed")

// Log is one shard's write-ahead log: an append-only sequence of framed
// records across rotating segment files.
//
// Concurrency: Append is called under the shard's exclusive statement
// lock, so appends to one log never race each other — the log's own mutex
// exists because the flusher goroutine reads shared state, and because
// checkpointing (ForceSync, Rotate) runs from another goroutine. The
// group-commit protocol: Append writes the frame and assigns a sequence
// number under mu, then (SyncAlways only) pokes the flusher and returns a
// wait function; the flusher syncs once for every record appended before
// it woke and releases all their waiters together.
type Log struct {
	dir      string
	policy   SyncPolicy
	segLimit int64
	counters *stats.Counters // over Family, shared by every shard log

	mu     sync.Mutex
	f      *os.File // current segment, append position at its end
	epoch  uint64   // current checkpoint epoch (segment namespace)
	segIdx int      // current segment index within epoch
	size   int64    // bytes in current segment
	seq    uint64   // records appended
	// Cumulative WAL accounting within the current epoch, across all of
	// its segments: how many records and framed bytes exist between the
	// epoch's start and the current append position. A follower applying
	// from (seg 1, off 0) of the same epoch counts the same way, so
	// primaryTotals - followerApplied is an exact replication lag.
	// Recovery seeds both from the replayed tail (seedTotals), so the
	// totals survive primary restarts; an epoch rotation resets them.
	epochRecs  int64
	epochBytes int64
	flushed    uint64     // records covered by a completed fsync
	syncErr    error      // sticky: a failed fsync poisons the log
	retired    []*os.File // rotated-out segments awaiting sync+close
	closed     bool
	cond       *sync.Cond // broadcast when flushed/syncErr advance

	// syncMu serializes the actual fsync work (flusher passes, forced
	// syncs, rotation) without holding mu across the syscall.
	syncMu sync.Mutex

	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

// segName is the segment file name for (epoch, idx).
func segName(epoch uint64, idx int) string {
	return fmt.Sprintf("wal-%08d-%08d.log", epoch, idx)
}

// parseSegName inverts segName; ok is false for other files.
func parseSegName(name string) (epoch uint64, idx int, ok bool) {
	var e uint64
	var i int
	if n, err := fmt.Sscanf(name, "wal-%d-%d.log", &e, &i); n != 2 || err != nil {
		return 0, 0, false
	}
	return e, i, true
}

// openLog opens (creating if absent) the segment (epoch, segIdx) for
// appending and starts the flusher. size must be the segment's current
// byte length — recovery passes the validated offset after truncating any
// torn tail; a fresh log passes 0.
func openLog(dir string, epoch uint64, segIdx int, size int64, policy SyncPolicy, segLimit int64, counters *stats.Counters) (*Log, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(epoch, segIdx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open wal segment: %w", err)
	}
	l := &Log{
		dir:      dir,
		policy:   policy,
		segLimit: segLimit,
		counters: counters,
		f:        f,
		epoch:    epoch,
		segIdx:   segIdx,
		size:     size,
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.flusher()
	return l, nil
}

// Append frames payload onto the current segment, rotating first when the
// segment is over its limit. Under SyncAlways it returns a wait function
// that blocks until an fsync covers the record; under the other policies
// wait is nil and the record is acknowledged immediately. Call with the
// shard's statement lock held so record order equals commit order.
func (l *Log) Append(payload []byte) (wait func() error, err error) {
	frame := appendFrame(make([]byte, 0, frameHeader+len(payload)), payload)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, errLogClosed
	}
	if err := l.syncErr; err != nil {
		// A log that failed an fsync must not accept (and acknowledge)
		// further records: the durability promise is already broken.
		l.mu.Unlock()
		return nil, fmt.Errorf("durable: wal poisoned by earlier sync failure: %w", err)
	}
	if l.size >= l.segLimit {
		if err := l.rotateLocked(l.epoch, l.segIdx+1); err != nil {
			l.mu.Unlock()
			return nil, err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.mu.Unlock()
		return nil, fmt.Errorf("durable: wal append: %w", err)
	}
	l.size += int64(len(frame))
	l.seq++
	l.epochRecs++
	l.epochBytes += int64(len(frame))
	seq := l.seq
	l.mu.Unlock()

	l.counters.Inc(CtrWalAppends)
	l.counters.Add(CtrWalBytes, int64(len(frame)))
	if l.policy != SyncAlways {
		return nil, nil
	}
	select {
	case l.notify <- struct{}{}:
	default: // a wakeup is already pending; the flusher will cover us
	}
	return func() error { return l.waitSynced(seq) }, nil
}

// rotateLocked switches appends to segment (epoch, idx). Called with mu
// held. The outgoing segment joins retired; the flusher syncs and closes
// it (under SyncNone, where no flusher touches files, it is closed
// directly — its bytes are in the page cache and nothing promised more).
func (l *Log) rotateLocked(epoch uint64, idx int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(epoch, idx)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: rotate wal segment: %w", err)
	}
	if l.policy == SyncNone {
		l.f.Close()
	} else {
		l.retired = append(l.retired, l.f)
	}
	l.f = f
	l.epoch = epoch
	l.segIdx = idx
	l.size = 0
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return nil
}

// waitSynced blocks until an fsync covers record seq (or the log fails).
func (l *Log) waitSynced(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushed < seq && l.syncErr == nil {
		l.cond.Wait()
	}
	return l.syncErr
}

// flusher is the group-commit goroutine: each pass syncs every record
// appended before it woke, so concurrent statements share fsyncs.
func (l *Log) flusher() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.policy == SyncInterval {
		t := time.NewTicker(syncCadence)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-l.stop:
			return
		case <-l.notify:
		case <-tick:
		}
		l.syncPass()
	}
}

// syncPass syncs retired segments (closing them) and the current segment,
// then advances flushed past every record appended before the pass began.
func (l *Log) syncPass() {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()

	l.mu.Lock()
	target := l.seq
	retired := l.retired
	l.retired = nil
	f := l.f
	if target == l.flushed && len(retired) == 0 {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()

	var err error
	for _, r := range retired {
		if e := r.Sync(); e != nil && err == nil {
			err = e
		}
		l.counters.Inc(CtrWalFsyncs)
		if e := r.Close(); e != nil && err == nil {
			err = e
		}
	}
	if err == nil && f != nil {
		err = f.Sync()
		l.counters.Inc(CtrWalFsyncs)
	}

	l.mu.Lock()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = err
		}
	} else if target > l.flushed {
		l.flushed = target
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// ForceSync pushes every appended record to stable storage regardless of
// policy (checkpoints and Close use it).
func (l *Log) ForceSync() error {
	l.syncPass()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// Rotate force-syncs the log and switches appends to the first segment of
// a new epoch. The caller (the checkpointer) holds every shard's
// statement lock, so no Append races the switch; old-epoch segments are
// synced, closed and left for the caller to delete once the manifest
// names the new epoch.
func (l *Log) Rotate(epoch uint64) error {
	if err := l.ForceSync(); err != nil {
		return err
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLogClosed
	}
	old := l.f
	f, err := os.OpenFile(filepath.Join(l.dir, segName(epoch, 1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: rotate wal epoch: %w", err)
	}
	old.Close() // already synced by ForceSync
	l.f = f
	l.epoch = epoch
	l.segIdx = 1
	l.size = 0
	l.epochRecs = 0
	l.epochBytes = 0
	return nil
}

// seedTotals sets the epoch-cumulative record/byte totals. Recovery calls
// it right after openLog with the counts it validated while replaying the
// epoch's segments, before any new Append can run.
func (l *Log) seedTotals(recs, bytes int64) {
	l.mu.Lock()
	l.epochRecs = recs
	l.epochBytes = bytes
	l.mu.Unlock()
}

// Close force-syncs and closes the log. Further Appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	<-l.done
	l.syncPass() // cover records appended after the flusher's last pass
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.syncErr
	if e := l.f.Close(); e != nil && err == nil {
		err = e
	}
	return err
}
