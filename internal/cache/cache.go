// Package cache models the processor cache hierarchy of the RC-NVM system
// (§4.3 of the paper): private L1/L2 per core and a shared, inclusive L3
// with a directory.
//
// RC-NVM lets the same data be cached under two different addresses — its
// row-oriented and its column-oriented encoding. The paper handles the
// resulting synonym problem with one orientation bit per line and eight
// "crossing" bits per 64-byte block (one per 8-byte word): when a line is
// installed, the up-to-eight perpendicular lines that intersect it are
// looked up, intersecting words are copied so duplicates agree, and the
// crossing bits record the overlap; a write to a word whose crossing bit is
// set updates the duplicate; an eviction clears the crossing bits of its
// crossed lines. This package implements exactly that bookkeeping (values
// are not simulated, only the state machine and its latency/stat costs),
// plus the cache-pinning primitive used by group caching (§5).
//
// The miss path is the simulator's hot loop and is built to allocate
// nothing and hash nothing: a block's Key is one word, in-flight misses
// live in an open-addressed table (mshr.go) over recycled entries that keep
// their waiter array and their completion func, and a fill wakes all its
// waiters from one event. AccessCall is the one entry point.
package cache

import (
	"fmt"
	"math"
	"slices"

	"rcnvm/internal/addr"
)

// Key identifies one cacheable 64-byte block in one word. Normal blocks are
// named by their address in their own orientation, in lines, plus the
// orientation; GS-DRAM gathered patterns are cached under a synthetic
// pattern identity (the gathered data exists under no linear address). The
// low half is what every level hashes into a set index — no probe
// re-encodes an address — and keyUsed is always set, so the zero Key names
// no block (an empty MSHR slot).
type Key uint64

const (
	keyColumn Key = 1 << (32 + iota) // the block is a column-oriented line
	keyGather                        // the block is a gathered pattern
	keyUsed
)

// AddrKey returns the key of the normal line holding address pa of
// orientation o's encoding.
func AddrKey(pa uint32, o addr.Orientation) Key {
	return keyUsed | Key(o)*keyColumn | Key(pa/addr.LineBytes)
}

// RCKey returns the key for a normal (row- or column-oriented) line of a
// device with geometry g.
func RCKey(g addr.Geometry, l addr.LineID) Key { return AddrKey(g.LineAddr(l), l.Orient) }

// GatherKey returns the key for a GS-DRAM gathered pattern.
func GatherKey(id uint32) Key { return keyUsed | keyGather | Key(id) }

// Gather reports whether k names a gathered pattern.
func (k Key) Gather() bool { return k&keyGather != 0 }

// Orient returns the orientation k's block is fetched in (gathers are row
// accesses).
func (k Key) Orient() addr.Orientation { return addr.Orientation(k / keyColumn & 1) }

// block is the line's own address in lines, or the gather pattern id.
func (k Key) block() uint32 { return uint32(k) }

// Base returns the coordinate of the first word of normal line k, and Line
// its identity. Both decode an address: they are for the rare paths that
// leave the hierarchy's namespace (memory requests, crossings), not probes.
func (k Key) Base(g addr.Geometry) addr.Coord {
	return g.Decode(k.block()*addr.LineBytes, k.Orient())
}

func (k Key) Line(g addr.Geometry) addr.LineID { return g.LineOf(k.Base(g), k.Orient()) }

func (k Key) String() string {
	return fmt.Sprintf("%v block %#x (gather: %v)", k.Orient(), k.block(), k.Gather())
}

// Config sizes the hierarchy. Latencies are cumulative lookup latencies in
// picoseconds (the time from the core issuing the access to data return
// when the hit occurs at that level).
type Config struct {
	Cores int

	L1Sets, L1Ways int
	L2Sets, L2Ways int
	L3Sets, L3Ways int

	L1LatPs, L2LatPs, L3LatPs int64
	// ResponseLatPs is added between memory data return and core wakeup.
	ResponseLatPs int64

	// Synonym and coherence penalties (per event, in picoseconds).
	SynonymCopyPs int64 // copying the intersecting word on install
	CrossUpdatePs int64 // updating the duplicate on a crossed write
	CrossClearPs  int64 // clearing a crossing bit on eviction
	InvalPs       int64 // invalidating a remote private copy

	// PrefetchDegree is the depth of the L3 next-line stream prefetcher:
	// on a demand miss the next N lines (in the missing line's own
	// orientation) are fetched into L3. Zero disables prefetching.
	PrefetchDegree int
}

// DefaultConfig is the Table 1 processor: 4 cores at 2 GHz, 32 KB L1,
// 256 KB L2 (private, 8-way), 8 MB shared L3, 64-byte lines.
func DefaultConfig() Config {
	const cpuCycle = 500 // ps at 2 GHz
	return Config{
		Cores:  4,
		L1Sets: 64, L1Ways: 8, // 32 KB
		L2Sets: 512, L2Ways: 8, // 256 KB
		L3Sets: 16384, L3Ways: 8, // 8 MB
		L1LatPs:        4 * cpuCycle,
		L2LatPs:        12 * cpuCycle,
		L3LatPs:        38 * cpuCycle,
		ResponseLatPs:  4 * cpuCycle,
		SynonymCopyPs:  6 * cpuCycle,
		CrossUpdatePs:  4 * cpuCycle,
		CrossClearPs:   2 * cpuCycle,
		InvalPs:        40 * cpuCycle,
		PrefetchDegree: 4,
	}
}

// Validate reports a configuration the hierarchy cannot be built from. A
// set index is a block number masked to the set count, so every level's
// set count must be a power of two.
func (c Config) Validate() error {
	for _, l := range []struct {
		name string
		sets int
	}{{"L1", c.L1Sets}, {"L2", c.L2Sets}, {"L3", c.L3Sets}} {
		if l.sets <= 0 || l.sets&(l.sets-1) != 0 {
			return fmt.Errorf("cache: %s has %d sets, want a power of two", l.name, l.sets)
		}
	}
	return nil
}

// line is the metadata for one cached block.
type line struct {
	key    Key
	valid  bool
	dirty  bool
	pinned bool
	// crossMask has bit w set when word w of this line is duplicated in a
	// perpendicular line currently cached (the paper's crossing bits).
	crossMask uint8
	// sharers is the directory bitmask of cores whose private caches may
	// hold this block. Maintained at L3 only.
	sharers uint32
	lru     uint64
}

// level is one set-associative cache array; set s is lines[s*ways:][:ways].
type level struct {
	lines   []line
	ways    int
	mask    uint32 // sets-1: the set count is a power of two
	lruTick uint64
	// touched lists the sets handed an install slot since the last reset
	// (marked[s]: s is listed), so that reset, flush and UnpinAll cost what
	// the run touched, not the array size.
	touched []int32
	marked  []bool
}

func newLevel(sets, ways int) *level {
	return &level{lines: make([]line, sets*ways), ways: ways, mask: uint32(sets - 1), marked: make([]bool, sets)}
}

// reset returns the level to its just-built state.
func (l *level) reset() {
	for _, s := range l.touched {
		clear(l.set(int(s)))
		l.marked[s] = false
	}
	l.touched = l.touched[:0]
	l.lruTick = 0
}

func (l *level) setIndex(k Key) int { return int(k.block() & l.mask) }

func (l *level) set(s int) []line { return l.lines[s*l.ways : (s+1)*l.ways] }

// probe returns the line holding k, or nil.
func (l *level) probe(k Key) *line {
	set := l.set(l.setIndex(k))
	for i := range set {
		if set[i].key == k && set[i].valid {
			return &set[i]
		}
	}
	return nil
}

// touch refreshes LRU state of ln.
func (l *level) touch(ln *line) {
	l.lruTick++
	ln.lru = l.lruTick
}

// victim picks the replacement slot in k's set: an invalid way if any,
// otherwise the least recently used unpinned way. It returns nil when every
// way is valid and pinned (install must bypass).
func (l *level) victim(k Key) *line {
	s := l.setIndex(k)
	if !l.marked[s] {
		l.marked[s] = true
		l.touched = append(l.touched, int32(s))
	}
	set := l.set(s)
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	// Every way is valid, so every lru differs: the least is unique. A
	// pinned way competes as the largest lru there is, which it never
	// beats. Which way is oldest is data, not a pattern, so the loop
	// selects and does not branch.
	best, least := -1, uint64(math.MaxUint64)
	for i := range set {
		lru := set[i].lru
		if set[i].pinned {
			lru = math.MaxUint64
		}
		if lru < least {
			best, least = i, lru
		}
	}
	if best < 0 {
		return nil
	}
	return &set[best]
}

// forEach calls fn for every valid line, in ascending set order (the
// end-of-run flush issues its write-backs in that order).
func (l *level) forEach(fn func(*line)) {
	slices.Sort(l.touched)
	for _, s := range l.touched {
		set := l.set(int(s))
		for w := range set {
			if set[w].valid {
				fn(&set[w])
			}
		}
	}
}
