package cache

import (
	"math/bits"

	"rcnvm/internal/event"
)

// waiter records one access blocked on an in-flight line. The completion
// callback is the engine's (fn, ctx, arg) triple, so waking a waiter never
// allocates; fn receives arg and the completion time.
type waiter struct {
	write   bool
	wordIdx int
	fn      event.Callback
	ctx     any
	arg     int64
}

// mshrEntry is one in-flight block. Entries are recycled: an entry is in
// the table from its miss (or prefetch) until fill takes it out, then — if
// anyone waits — referenced only by its pending wake event, then on the
// free list, empty but for its waiter array and done.
type mshrEntry struct {
	key     Key
	waiters []waiter
	cores   uint32 // bitmask of waiting cores; zero for a prefetch nobody caught up with
	pin     bool
	done    func(finish int64) // fill(this entry), bound once when the entry is built
	table   *mshrTable
}

// mshrTable finds the entry of an in-flight key: open addressing with
// linear probing from a multiplicative hash, backward-shift deletion (no
// tombstones: the table lives as long as the simulator), at most half full.
// A zero key marks an empty slot.
type mshrTable struct {
	slots []mshrSlot // power-of-two length
	shift uint       // 64 - log2(len(slots))
	n     int
	free  []*mshrEntry
	fill  func(*mshrEntry, int64)
}

type mshrSlot struct {
	key Key
	e   *mshrEntry
}

// mshrMinSlots holds the Table 1 machine's cores x window demand misses and
// its prefetches; pinned group-caching prefetches are unbounded and grow it.
const mshrMinSlots = 64

func (t *mshrTable) init(slots int, fill func(*mshrEntry, int64)) {
	t.slots, t.shift, t.fill = make([]mshrSlot, slots), uint(64-bits.TrailingZeros(uint(slots))), fill
}

func (t *mshrTable) home(k Key) int { return int(uint64(k) * 0x9e3779b97f4a7c15 >> t.shift) }

// get returns k's entry, or nil.
func (t *mshrTable) get(k Key) *mshrEntry {
	for i := t.home(k); ; i = (i + 1) & (len(t.slots) - 1) {
		if s := &t.slots[i]; s.key == k {
			return s.e
		} else if s.key == 0 {
			return nil
		}
	}
}

// add puts a recycled (or, failing that, new) entry for k, which must not
// be in flight, into the table.
func (t *mshrTable) add(k Key) *mshrEntry {
	var e *mshrEntry
	if n := len(t.free); n > 0 {
		e, t.free = t.free[n-1], t.free[:n-1]
	} else {
		e = &mshrEntry{table: t}
		e.done = func(finish int64) { t.fill(e, finish) }
	}
	e.key = k
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots, t.shift = make([]mshrSlot, 2*len(old)), t.shift-1
		for _, s := range old {
			if s.key != 0 {
				t.place(s)
			}
		}
	}
	t.place(mshrSlot{k, e})
	t.n++
	return e
}

func (t *mshrTable) place(s mshrSlot) {
	i := t.home(s.key)
	for t.slots[i].key != 0 {
		i = (i + 1) & (len(t.slots) - 1)
	}
	t.slots[i] = s
}

// remove takes k's entry out of the table and returns it (nil: k is not in
// flight), closing the gap: a later entry of the cluster moves back into the
// hole if the hole is on its probe path — no further behind it than its home.
func (t *mshrTable) remove(k Key) *mshrEntry {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].key != k {
		if t.slots[i].key == 0 {
			return nil
		}
		i = (i + 1) & mask
	}
	e := t.slots[i].e
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshrSlot{}
	t.n--
	return e
}

// recycle empties e — it keeps no waiter's context alive — and frees it.
func (t *mshrTable) recycle(e *mshrEntry) {
	clear(e.waiters)
	e.key, e.waiters, e.cores, e.pin = 0, e.waiters[:0], 0, false
	t.free = append(t.free, e)
}

// reset empties the table, recycling what was in flight. An entry whose
// wake event was pending is simply dropped with that event.
func (t *mshrTable) reset() {
	if t.n == 0 {
		return // as after every completed run, however far the table grew
	}
	for i := range t.slots {
		if e := t.slots[i].e; e != nil {
			t.recycle(e)
		}
	}
	clear(t.slots)
	t.n = 0
}
