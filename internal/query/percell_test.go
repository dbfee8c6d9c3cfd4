package query

import (
	"sort"

	"rcnvm/internal/addr"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// perCell is the reference lowering: the planner as it was before it read
// placements a run at a time. Every slot access asks Cell for its word and
// covers one tuple, so the planner's tuple walk and word-major walk become
// the per-cell loops they replaced (a slot's load where its line changes,
// perTuple compute after every tuple); a span is touched word by word; the
// physical order is a sort.Slice over the same keys.
type perCell struct{}

func (perCell) slot(e *Executor, core int, cur *scanCursor, si, t int) int {
	sl := &cur.slots[si]
	c := cur.p.Cell(t, sl.w)
	if id := cur.geom.LineOf(c, cur.o); !sl.valid || id != sl.line {
		e.emit(core, trace.Op{Kind: cur.kind, Coord: c})
		sl.line, sl.valid = id, true
	}
	return 1
}

func (perCell) touch(e *Executor, core int, p imdb.Placement, t int, spans []fieldSpan, o addr.Orientation, write bool, perSpan int64) {
	kind := e.accessKind(o, write)
	geom := p.Geom()
	for _, s := range spans {
		var last addr.LineID
		valid := false
		for w := s.off; w < s.off+s.words; w++ {
			c := p.Cell(t, w)
			id := geom.LineOf(c, o)
			if !valid || id != last {
				e.emit(core, trace.Op{Kind: kind, Coord: c})
				last, valid = id, true
			}
		}
		e.emitCompute(core, perSpan)
	}
}

func (perCell) order(keys []orderKey) {
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
}

// LowerPerCell makes every executor lower through the per-cell reference
// until the returned function restores the run walks.
func LowerPerCell() (restore func()) {
	lower = perCell{}
	return func() { lower = runs{} }
}
