package cache

import "fmt"

// CheckInvariants validates the structural invariants of the hierarchy and
// returns the first violation found (nil when consistent). It is meant for
// tests and debugging, not the simulation fast path, and recounts from the
// raw line arrays — never through the bookkeeping it checks.
//
// Invariants:
//  1. Inclusion: every valid line in a private L1/L2 is also valid in L3.
//  2. Crossing symmetry: if L3 line A has crossing bit i set, the
//     perpendicular line it names is valid in L3 and carries the
//     reciprocal bit.
//  3. Crossing bits only appear on dual-address hierarchies and never on
//     gathered lines.
//  4. At every level each set holding a valid line is marked, and the
//     marked sets are exactly the touched list, each once (reset, flush
//     and UnpinAll walk only that list).
//  5. l3Lines equals the valid L3 lines of each orientation, gathers
//     counting as rows (installL3's crossing shortcut trusts a zero).
//  6. No line is dirty unless a store was seen since the last flush
//     (FlushDirty trusts the flag), and every normal line's key carries
//     the block number of its own address.
//  7. The MSHR table is sound (mshrTable.check), and no in-flight key is
//     valid in L3. That overlap cannot happen today either: a miss enters
//     the table only after its L3 probe failed, the prefetcher skips what
//     is resident or in flight, and the one installer, fill, has taken its
//     key out of the table first.
func (h *Hierarchy) CheckInvariants() error {
	err := h.mshr.check()
	check := func(cond bool, format string, args ...any) {
		if err == nil && !cond {
			err = fmt.Errorf(format, args...)
		}
	}
	for _, s := range h.mshr.slots {
		check(s.key == 0 || h.l3.probe(s.key) == nil, "%v is in flight and valid in L3", s.key)
	}
	// walk visits every valid line of lv straight from the array, checking
	// the level's touched-set bookkeeping on the way.
	walk := func(name string, lv *level, fn func(*line)) {
		listed := make(map[int32]int, len(lv.touched))
		for _, s := range lv.touched {
			listed[s]++
		}
		for s, m := range lv.marked {
			check(listed[int32(s)] <= 1 && m == (listed[int32(s)] == 1),
				"%s set %d: marked=%v but listed %d times", name, s, m, listed[int32(s)])
			for i := range lv.set(s) {
				ln := &lv.set(s)[i]
				if !ln.valid {
					continue
				}
				check(m, "%s set %d holds %v but is not marked touched", name, s, ln.key)
				check(h.wrote || !ln.dirty, "%s holds dirty %v with no store seen", name, ln.key)
				check(ln.key.Gather() || ln.key == RCKey(h.geom, ln.key.Line(h.geom)), "%s: %v carries a foreign block number", name, ln.key)
				fn(ln)
			}
		}
	}

	for c := 0; c < h.cfg.Cores; c++ {
		for i, lv := range []*level{h.l1[c], h.l2[c]} {
			walk(fmt.Sprintf("core %d L%d", c, i+1), lv, func(ln *line) {
				check(h.l3.probe(ln.key) != nil,
					"inclusion violated: core %d holds %v absent from L3", c, ln.key)
			})
		}
	}

	var l3Lines [2]int
	walk("L3", h.l3, func(ln *line) {
		l3Lines[ln.key.Orient()]++
		if ln.crossMask == 0 {
			return
		}
		check(h.dual, "crossing bits on a non-dual hierarchy: %v", ln.key)
		check(!ln.key.Gather(), "crossing bits on a gathered line: %v", ln.key)
		if !h.dual || ln.key.Gather() {
			return
		}
		l := ln.key.Line(h.geom)
		crossings := h.geom.Crossings(l)
		myIdx := l.CrossWordIndex()
		for i, cl := range crossings {
			if ln.crossMask&(1<<uint(i)) == 0 {
				continue
			}
			other := h.l3.probe(RCKey(h.geom, cl))
			check(other != nil, "crossing bit %d of %v names an absent line", i, ln.key)
			if other != nil {
				check(other.crossMask&(1<<uint(myIdx)) != 0,
					"crossing bit not reciprocal between %v and %v", ln.key, cl)
			}
		}
	})
	check(l3Lines == h.l3Lines, "L3 holds %v row/column lines, bookkeeping says %v", l3Lines, h.l3Lines)

	return err
}

// PinnedCount returns the number of currently pinned lines across the
// hierarchy (diagnostics).
func (h *Hierarchy) PinnedCount() int {
	n := 0
	count := func(ln *line) {
		if ln.pinned {
			n++
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1[c].forEach(count)
		h.l2[c].forEach(count)
	}
	h.l3.forEach(count)
	return n
}

// check validates the table against a recount: every entry sits under its
// own key and is found by probing from that key's home slot (so no empty
// slot lies on the way), n counts them and leaves half the slots empty, an
// entry has waiters exactly when it has waiting cores, and a free entry
// holds nothing — no key, core, pin or waiter, not even in the spare
// capacity of its array, where a context pointer would stay alive.
func (t *mshrTable) check() error {
	n := 0
	for i, s := range t.slots {
		switch {
		case s.key == 0 && s.e == nil:
			continue
		case s.key == 0 || s.e == nil || s.e.key != s.key:
			return fmt.Errorf("mshr slot %d: key %v over entry %+v", i, s.key, s.e)
		case t.get(s.key) != s.e:
			return fmt.Errorf("mshr: %v in slot %d is not reachable from its home slot %d", s.key, i, t.home(s.key))
		case (s.e.cores == 0) != (len(s.e.waiters) == 0):
			return fmt.Errorf("mshr: %v has %d waiters but cores %b", s.key, len(s.e.waiters), s.e.cores)
		}
		n++
	}
	if n != t.n || 2*n > len(t.slots) {
		return fmt.Errorf("mshr: %d entries in %d slots, bookkeeping says %d", n, len(t.slots), t.n)
	}
	for _, e := range t.free {
		held := len(e.waiters) > 0 || e.key != 0 || e.cores != 0 || e.pin
		for _, w := range e.waiters[:cap(e.waiters)] {
			held = held || w.fn != nil || w.ctx != nil
		}
		if held {
			return fmt.Errorf("mshr: free entry still holds %+v", *e)
		}
	}
	return nil
}
