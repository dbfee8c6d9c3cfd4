// Package shard implements horizontal sharding over the RC-NVM engine: a
// Cluster is N fully independent engine.DB instances (each with its own
// simulated memory, allocator and optional fault injector), plus the row
// registry that maps every logical row to the shard that stores it.
//
// Rows are hash-partitioned on the first word of the table's first column
// (splitmix64 modulo N), the same finalizer the fault layer uses, so the
// placement is deterministic and independent of insertion concurrency.
// The registry additionally assigns every row a global id in statement
// order; global ids are what make N-shard results byte-identical to the
// 1-shard baseline, because the baseline's row ids *are* the global ids.
//
// Concurrency: the cluster itself adds no statement lock — each shard's
// engine.DB carries its own RWMutex and the scatter-gather executor in
// internal/sql locks the shards a statement touches in ascending shard
// order (read locks for read-only statements, exclusive otherwise).
// The registry has its own small mutex because routing decisions must be
// made before any shard lock is held.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rcnvm/internal/engine"
	"rcnvm/internal/fault"
)

// Cluster is a set of independent single-channel databases acting as one
// sharded database.
type Cluster struct {
	shards  []*engine.DB
	workers int

	mu     sync.RWMutex
	tables map[string]*tableMap
}

// tableMap is the registry entry for one sharded table.
type tableMap struct {
	// partCol is the partitioning column (the schema's first column);
	// partWide disables point routing when that column is multi-word.
	partCol  string
	partWide bool

	next     int     // next global row id
	toGlobal [][]int // per shard: local row id -> global row id
	owner    []ref   // global row id -> location

	// dirty is set once an UPDATE rewrites the partitioning column: the
	// stored keys no longer predict placement, so point routing for this
	// table is permanently disabled (broadcasts stay correct regardless
	// of placement). Atomic because point statements flip/read it while
	// holding only their own shard's lock.
	dirty atomic.Bool
}

type ref struct{ shard, local int }

// Open creates a cluster of n fresh databases. workers bounds the scatter
// fan-out concurrency (0 = one per CPU). The unread engine.Mode stays for
// bench/, which passes it, until ROADMAP item 1e.
func Open(_ engine.Mode, n, workers int) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: cluster needs at least 1 shard, got %d", n)
	}
	c := &Cluster{workers: workers, tables: make(map[string]*tableMap)}
	for i := 0; i < n; i++ {
		db, err := engine.Open()
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, db)
	}
	return c, nil
}

// Wrap presents an existing single database as a 1-shard cluster. The
// executor never consults the registry at N==1 (a SELECT is the merge of
// one partial, whose local row ids are the global ids, and DDL and DML run
// as on one database), so a wrapped database behaves exactly as it did
// unsharded (tables created directly on db stay fully usable).
func Wrap(db *engine.DB) *Cluster {
	return &Cluster{shards: []*engine.DB{db}, tables: make(map[string]*tableMap)}
}

// N returns the shard count.
func (c *Cluster) N() int { return len(c.shards) }

// Shard returns shard i's database.
func (c *Cluster) Shard(i int) *engine.DB { return c.shards[i] }

// Workers returns the configured scatter fan-out width (0 = one per CPU).
func (c *Cluster) Workers() int { return c.workers }

// splitmix64 is the 64-bit finalizer used to spread partition keys; any
// avalanching bijection works, this one matches the repo's fault layer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Partition maps a partition-column value to its owning shard.
func (c *Cluster) Partition(key uint64) int {
	return int(splitmix64(key) % uint64(len(c.shards)))
}

// Register records a table created through the scatter executor. partCol
// is the schema's first column; wide disables point routing on it.
func (c *Cluster) Register(name, partCol string, wide bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[name] = &tableMap{
		partCol:  partCol,
		partWide: wide,
		toGlobal: make([][]int, len(c.shards)),
	}
}

// Registered reports whether name was created through the executor.
func (c *Cluster) Registered(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.tables[name]
	return ok
}

// PartitionColumn returns the routing column for name and whether point
// routing on it is currently sound (registered, single-word, and never
// rewritten by an UPDATE).
func (c *Cluster) PartitionColumn(name string) (col string, routable bool) {
	c.mu.RLock()
	tm, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return "", false
	}
	return tm.partCol, !tm.partWide && !tm.dirty.Load()
}

// MarkUnstable permanently disables point routing for name (called when a
// statement rewrites the partitioning column). Unregistered names no-op.
func (c *Cluster) MarkUnstable(name string) {
	c.mu.RLock()
	tm, ok := c.tables[name]
	c.mu.RUnlock()
	if ok {
		tm.dirty.Store(true)
	}
}

// Assign records a freshly appended row and returns its global id. The
// caller must hold every shard's exclusive lock (INSERTs broadcast).
func (c *Cluster) Assign(name string, shard, local int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm, ok := c.tables[name]
	if !ok {
		return 0, fmt.Errorf("shard: table %q not managed by the cluster", name)
	}
	if local != len(tm.toGlobal[shard]) {
		return 0, fmt.Errorf("shard: table %q shard %d: local row %d out of sequence (want %d)",
			name, shard, local, len(tm.toGlobal[shard]))
	}
	g := tm.next
	tm.next++
	tm.toGlobal[shard] = append(tm.toGlobal[shard], g)
	tm.owner = append(tm.owner, ref{shard, local})
	return g, nil
}

// Global returns the global id of (shard, local) for name.
func (c *Cluster) Global(name string, shard, local int) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tm, ok := c.tables[name]
	if !ok || local >= len(tm.toGlobal[shard]) {
		return 0, false
	}
	return tm.toGlobal[shard][local], true
}

// AssignRecovered re-records a row during WAL replay with the global id
// it was originally assigned. Unlike Assign it never allocates a new id:
// the logged id IS the merge key the row had before the crash, and the
// registry must reproduce it exactly for recovered scatter-gather results
// to stay byte-identical. Rows may arrive out of global order (recovery
// replays shard logs one shard at a time), so owner grows sparsely and
// next tracks the high-water mark.
func (c *Cluster) AssignRecovered(name string, shard, local, global int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tm, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("shard: table %q not managed by the cluster", name)
	}
	if local != len(tm.toGlobal[shard]) {
		return fmt.Errorf("shard: recover table %q shard %d: local row %d out of sequence (want %d)",
			name, shard, local, len(tm.toGlobal[shard]))
	}
	if global < 0 {
		return fmt.Errorf("shard: recover table %q: negative global row id %d", name, global)
	}
	for len(tm.owner) <= global {
		tm.owner = append(tm.owner, ref{shard: -1, local: -1})
	}
	if r := tm.owner[global]; r.shard != -1 {
		return fmt.Errorf("shard: recover table %q: global row %d assigned twice", name, global)
	}
	tm.toGlobal[shard] = append(tm.toGlobal[shard], global)
	tm.owner[global] = ref{shard: shard, local: local}
	if global >= tm.next {
		tm.next = global + 1
	}
	return nil
}

// Owner returns the (shard, local) location of a global row id for name.
func (c *Cluster) Owner(name string, global int) (shard, local int, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tm, ok := c.tables[name]
	if !ok || global < 0 || global >= len(tm.owner) {
		return 0, 0, false
	}
	r := tm.owner[global]
	if r.shard < 0 {
		// A hole left by an out-of-order AssignRecovered that has not been
		// filled yet (possible only mid-recovery).
		return 0, 0, false
	}
	return r.shard, r.local, true
}

// RegistryState is the serializable form of the cluster's row registry,
// captured at checkpoint time and restored before WAL replay. It carries
// everything routing and result merging depend on: the partition column
// and its wide flag, the dirty (point-routing-disabled) flag, and the
// complete global-row id mapping.
type RegistryState struct {
	Shards int
	Tables map[string]TableState
}

// TableState is one table's registry entry in serializable form.
type TableState struct {
	PartCol  string
	PartWide bool
	Dirty    bool
	Next     int
	ToGlobal [][]int
	Owner    []RowRef
}

// RowRef is the serializable (shard, local) location of one global row.
type RowRef struct {
	Shard, Local int
}

// RegistrySnapshot captures the registry. Callers must hold every shard's
// exclusive statement lock (as the checkpointer does), so no statement
// can be mutating the registry concurrently.
func (c *Cluster) RegistrySnapshot() RegistryState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := RegistryState{Shards: len(c.shards), Tables: make(map[string]TableState, len(c.tables))}
	for name, tm := range c.tables {
		ts := TableState{
			PartCol:  tm.partCol,
			PartWide: tm.partWide,
			Dirty:    tm.dirty.Load(),
			Next:     tm.next,
			ToGlobal: make([][]int, len(tm.toGlobal)),
			Owner:    make([]RowRef, len(tm.owner)),
		}
		for i, g := range tm.toGlobal {
			ts.ToGlobal[i] = append([]int(nil), g...)
		}
		for i, r := range tm.owner {
			ts.Owner[i] = RowRef{Shard: r.shard, Local: r.local}
		}
		st.Tables[name] = ts
	}
	return st
}

// RestoreRegistry replaces the (empty) registry with a checkpointed
// snapshot. It rejects snapshots taken at a different shard count: hash
// placement is modulo N, so the stored rows would not live where routing
// expects them.
func (c *Cluster) RestoreRegistry(st RegistryState) error {
	if st.Shards != len(c.shards) {
		return fmt.Errorf("shard: registry snapshot taken at %d shards, cluster has %d", st.Shards, len(c.shards))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.tables) != 0 {
		return fmt.Errorf("shard: RestoreRegistry requires an empty registry")
	}
	for name, ts := range st.Tables {
		tm := &tableMap{
			partCol:  ts.PartCol,
			partWide: ts.PartWide,
			next:     ts.Next,
			toGlobal: make([][]int, len(c.shards)),
			owner:    make([]ref, len(ts.Owner)),
		}
		tm.dirty.Store(ts.Dirty)
		for i := range ts.ToGlobal {
			if i < len(tm.toGlobal) {
				tm.toGlobal[i] = append([]int(nil), ts.ToGlobal[i]...)
			}
		}
		for i, r := range ts.Owner {
			tm.owner[i] = ref{shard: r.Shard, local: r.Local}
		}
		c.tables[name] = tm
	}
	return nil
}

// EnableFaults installs an independent fault injector on every shard.
// Each shard derives its own seed so shards do not mirror each other's
// transient errors; targeted stuck cells (AddStuck) remain per shard.
func (c *Cluster) EnableFaults(cfg fault.Config) {
	for i, db := range c.shards {
		scfg := cfg
		if cfg.Enabled {
			scfg.Seed = splitmix64(cfg.Seed ^ (uint64(i) * 0x9e3779b97f4a7c15))
		}
		db.EnableFaults(scfg)
	}
}
