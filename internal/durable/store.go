// Package durable is the persistence subsystem that makes a running
// RC-NVM cluster survive kill -9: a per-shard write-ahead log of every
// mutating statement, checkpoints built on engine.Save, and startup
// recovery that loads the latest checkpoint and replays the WAL tail.
//
// Layout of a data directory serving an N-shard cluster:
//
//	MANIFEST                          current epoch, mode, shard count (JSON)
//	registry-<epoch>.snap             shard row-registry checkpoint (framed gob)
//	shard-0000/checkpoint-<epoch>.snap   engine.Save snapshot (absent at epoch 1)
//	shard-0000/wal-<epoch>-<seg>.log     framed records, rotated by size
//	shard-0001/...
//
// The epoch protocol makes checkpoints atomic without ever being able to
// lose both the checkpoint and the log: a checkpoint writes every
// new-epoch file (temp file + rename + directory fsync), rotates the logs
// into the new epoch, and only then renames the new MANIFEST into place —
// the single committing write. A crash anywhere before that rename
// recovers from the old epoch, whose checkpoint and complete WAL are
// still on disk; stale files from either side are swept on open.
//
// Logging is logical: the record for a statement is its source text (plus
// the global row ids the shard registry assigned for scatter-routed
// INSERTs), and recovery re-executes it against the recovered shard. The
// engine is deterministic, so re-execution reproduces the exact
// pre-crash state — including the partial effects of statements that
// failed midway, which is why failed statements are logged too. The one
// configuration this rules out is fault injection (injected errors do not
// replay identically); rcnvm-serve refuses to combine the two.
package durable

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rcnvm/internal/engine"
	"rcnvm/internal/shard"
	"rcnvm/internal/stats"
)

// Family declares the wal.* series, as merged into the server's counters
// and /metrics exposition (rcnvm_wal_appends_total and friends).
// Every shard log of a Store counts into one store over it.
var Family stats.Family

var (
	CtrWalAppends        = Family.Counter("wal.appends")             // records appended
	CtrWalFsyncs         = Family.Counter("wal.fsyncs")              // fsync syscalls issued
	CtrWalBytes          = Family.Counter("wal.bytes")               // framed bytes written
	CtrCheckpoints       = Family.Counter("wal.checkpoints")         // checkpoints completed
	CtrCheckpointNanos   = Family.Counter("wal.checkpoint_ns")       // wall time spent checkpointing
	CtrRecoveryReplayed  = Family.Counter("wal.recovery_replayed")   // records replayed at boot
	CtrRecoveryNanos     = Family.Counter("wal.recovery_ns")         // wall time spent recovering
	CtrRecoveryTornBytes = Family.Counter("wal.recovery_torn_bytes") // bytes truncated off torn segment tails
)

// Options configures a Store. The zero value is usable: group-commit
// fsyncs, 8 MiB segments.
type Options struct {
	// Fsync is the WAL durability policy (default SyncAlways).
	Fsync SyncPolicy
	// SegmentBytes rotates WAL segments past this size (default 8 MiB).
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// manifest is the store's committing record: the epoch names which
// checkpoint + WAL generation is current.
type manifest struct {
	Version int    `json:"version"`
	Mode    string `json:"mode"`
	Shards  int    `json:"shards"`
	Epoch   uint64 `json:"epoch"`
}

const manifestVersion = 1

// manifestMode is the MANIFEST's "mode", the dual-address engine's; Open
// refuses a data dir that names any other.
const manifestMode = "dual"

// Store manages one data directory for one cluster.
type Store struct {
	dir   string
	opts  Options
	n     int
	epoch uint64

	counters *stats.Counters // over Family

	mu      sync.Mutex // serializes Checkpoint and Close
	logs    []*Log
	cluster *shard.Cluster
	closed  bool
}

// Open creates or opens a data directory for an N-shard cluster. An
// existing directory must have been written by the dual-address engine at
// the same shard count — hash placement is modulo N, so reopening at a
// different count would route every row wrong. Call Recover next; the
// store only starts logging once it is attached to a recovered cluster.
// The unread engine.Mode stays for bench/, which passes it, until ROADMAP
// item 1e.
func Open(dir string, _ engine.Mode, shards int, opts Options) (*Store, error) {
	if shards < 1 {
		return nil, fmt.Errorf("durable: need at least 1 shard, got %d", shards)
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{dir: dir, opts: opts, n: shards, counters: stats.NewCounters(&Family)}
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(s.shardDir(i), 0o755); err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
	}
	mpath := filepath.Join(dir, "MANIFEST")
	raw, err := os.ReadFile(mpath)
	switch {
	case err == nil:
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("durable: corrupt MANIFEST: %w", err)
		}
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("durable: MANIFEST version %d, want %d", m.Version, manifestVersion)
		}
		if m.Mode != manifestMode {
			return nil, fmt.Errorf("durable: data dir was written in %s mode, cluster is %s", m.Mode, manifestMode)
		}
		if m.Shards != shards {
			return nil, fmt.Errorf("durable: data dir was written at %d shards, cluster has %d", m.Shards, shards)
		}
		s.epoch = m.Epoch
	case os.IsNotExist(err):
		s.epoch = 1
		if err := s.writeManifest(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("durable: %w", err)
	}
	return s, nil
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the current checkpoint epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// CounterSnapshot returns the accounting under the wal.* series names, as
// the server merges it into its counters.
func (s *Store) CounterSnapshot() map[string]int64 { return s.counters.Snapshot() }

func (s *Store) shardDir(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%04d", i))
}

func (s *Store) checkpointPath(i int, epoch uint64) string {
	return filepath.Join(s.shardDir(i), fmt.Sprintf("checkpoint-%08d.snap", epoch))
}

func (s *Store) registryPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("registry-%08d.snap", epoch))
}

// writeManifest atomically replaces MANIFEST — the committing write of
// the epoch protocol.
func (s *Store) writeManifest() error {
	raw, err := json.MarshalIndent(manifest{
		Version: manifestVersion, Mode: manifestMode, Shards: s.n, Epoch: s.epoch,
	}, "", "  ")
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, "MANIFEST"), func(w io.Writer) error {
		_, err := w.Write(append(raw, '\n'))
		return err
	})
}

// atomicWrite writes path via temp file + fsync + rename + directory
// fsync, so the path either holds the complete new contents or whatever
// it held before.
func atomicWrite(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: write %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: sync %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: close %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: sync dir %s: %w", dir, err)
	}
	return nil
}

// Checkpoint quiesces the cluster (every shard's exclusive statement
// lock), snapshots every shard plus the row registry into a new epoch,
// switches the WALs to that epoch, commits it via the MANIFEST, and
// sweeps the previous epoch's files. Statements block for the duration;
// the WAL shrinks to empty. Requires a recovered (attached) cluster.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errLogClosed
	}
	c := s.cluster
	if c == nil {
		return fmt.Errorf("durable: checkpoint before Recover")
	}
	start := time.Now()
	for i := 0; i < c.N(); i++ {
		c.Shard(i).Lock()
	}
	defer func() {
		for i := c.N() - 1; i >= 0; i-- {
			c.Shard(i).Unlock()
		}
	}()

	newEpoch := s.epoch + 1
	for i := 0; i < c.N(); i++ {
		db := c.Shard(i)
		if err := atomicWrite(s.checkpointPath(i, newEpoch), db.Save); err != nil {
			return err
		}
	}
	if err := atomicWrite(s.registryPath(newEpoch), func(w io.Writer) error {
		return writeFramedGob(w, c.RegistrySnapshot())
	}); err != nil {
		return err
	}
	for _, l := range s.logs {
		if err := l.Rotate(newEpoch); err != nil {
			return err
		}
	}
	oldEpoch := s.epoch
	s.epoch = newEpoch
	if err := s.writeManifest(); err != nil {
		s.epoch = oldEpoch
		return err
	}
	s.sweepStale()
	s.counters.Inc(CtrCheckpoints)
	s.counters.Add(CtrCheckpointNanos, time.Since(start).Nanoseconds())
	return nil
}

// sweepStale removes files from any epoch other than the current one:
// leftovers of superseded epochs, or of a checkpoint that crashed before
// its manifest committed. Best-effort — stale files are ignored by
// recovery either way.
func (s *Store) sweepStale() {
	drop := func(dir string, keep func(name string) bool) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range ents {
			if e.IsDir() || keep(e.Name()) {
				continue
			}
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	drop(s.dir, func(name string) bool {
		if name == "MANIFEST" {
			return true
		}
		var e uint64
		if n, err := fmt.Sscanf(name, "registry-%d.snap", &e); n == 1 && err == nil {
			return e == s.epoch
		}
		return false
	})
	for i := 0; i < s.n; i++ {
		drop(s.shardDir(i), func(name string) bool {
			if e, _, ok := parseSegName(name); ok {
				return e == s.epoch
			}
			var e uint64
			if n, err := fmt.Sscanf(name, "checkpoint-%d.snap", &e); n == 1 && err == nil {
				return e == s.epoch
			}
			return false
		})
	}
}

// Close force-syncs and closes every shard log. It does not checkpoint;
// callers wanting a clean restart-without-replay call Checkpoint first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, l := range s.logs {
		if e := l.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// writeFramedGob writes one gob value inside a WAL-style frame, so
// readers verify a checksum before decoding.
func writeFramedGob(w io.Writer, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	_, err := w.Write(appendFrame(nil, buf.Bytes()))
	return err
}

// readFramedGob inverts writeFramedGob.
func readFramedGob(raw []byte, v any) error {
	payload, rest, err := DecodeFrame(raw)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after framed gob", ErrCorrupt, len(rest))
	}
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// sortedSegments lists shard i's current-epoch WAL segments in index
// order.
func (s *Store) sortedSegments(i int) ([]string, []int, error) {
	ents, err := os.ReadDir(s.shardDir(i))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	type seg struct {
		name string
		idx  int
	}
	var segs []seg
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		epoch, idx, ok := parseSegName(e.Name())
		if !ok || epoch != s.epoch {
			continue
		}
		segs = append(segs, seg{e.Name(), idx})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].idx < segs[b].idx })
	names := make([]string, len(segs))
	idxs := make([]int, len(segs))
	for j, sg := range segs {
		names[j] = filepath.Join(s.shardDir(i), sg.name)
		idxs[j] = sg.idx
	}
	return names, idxs, nil
}
