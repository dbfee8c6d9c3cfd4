// Package engine is a small but functional in-memory database engine on
// top of the dual-addressable memory model: it stores real tuple values in
// a funcmem.Memory through the storage layouts of internal/imdb, executes
// scans, aggregates, projections and updates with the access
// orientations an RC-NVM-aware engine would choose (column accesses for
// field scans, row accesses for tuple fetches), and can record its memory
// accesses as a trace replayable on the timing simulator.
//
// It is the "values" counterpart of internal/query (which plans access
// *streams* for the timing model). It has one layout, the dual-address one;
// the conventional row-only baseline is a rewrite of its recorded stream
// (trace.RowOnly), replayed on the timing simulator.
package engine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"rcnvm/internal/addr"
	"rcnvm/internal/fault"
	"rcnvm/internal/funcmem"
	"rcnvm/internal/imdb"
	"rcnvm/internal/trace"
)

// Mode names the engine's addressing. DualAddress is its only value; the
// type stays for bench/, which passes it to shard.Open and durable.Open,
// until ROADMAP item 1e.
type Mode uint8

// DualAddress uses column-oriented accesses for field scans (the RC-NVM
// engine).
const DualAddress Mode = 0

// String names the addressing mode as /checksum and /wal/state report it.
func (m Mode) String() string {
	if m == DualAddress {
		return "dual-address"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// DB is one database instance bound to one memory.
//
// Concurrency: the embedded RWMutex guards every piece of database state
// (tables, tuple values, tombstones, allocators), but the engine's methods
// do not acquire it themselves — callers lock at *statement* granularity so
// that a multi-step operation (a WHERE scan followed by a projection, say)
// sees one consistent snapshot. The discipline, enforced by sql.Execute
// (and through it internal/server):
//
//   - RLock for read-only work: Tuple, Field, ScanWhere, Where,
//     aggregates, Project, Save, ExportCSV. Any number of readers may run
//     in parallel — reads mutate nothing but the memory's atomic access
//     counters, and a traced reader's own stream (Table.Traced).
//   - Lock for mutations (CreateTable, Append, AppendRows, Set, SetField,
//     Update, Delete, Load, ImportCSV).
//
// Single-threaded users (the CLI shells, examples, most tests) may simply
// ignore the lock.
type DB struct {
	sync.RWMutex

	mem    *funcmem.Memory
	alloc  *imdb.NVMAllocator
	tables map[string]*Table

	// inj, when non-nil, runs every stored-word read through the
	// (72,64) SECDED pipeline with injected raw bit errors: single-bit
	// errors are corrected transparently, uncorrectable ones surface as
	// *fault.UncorrectableError from whichever Table method hit them.
	inj *fault.Injector

	// commitLog, when non-nil, is the durability hook installed by
	// internal/durable: the sql layer appends one record per mutating
	// statement while still holding the statement lock, then waits for
	// durability after releasing it. Nil (the default) keeps the engine
	// fully volatile with zero added work on the execution path.
	commitLog CommitLog
}

// CommitLog is the write-ahead-log hook for one database (one shard).
// Implementations append a record under the caller-held statement lock —
// per-log record order must equal commit order — and return a wait
// function that blocks until the record is durable (nil when the
// configured fsync policy acknowledges immediately).
type CommitLog interface {
	// LogStatement records one mutating statement by source text. failed
	// marks statements that returned an error but may still have partially
	// mutated state (a mid-statement INSERT capacity failure, say);
	// deterministic re-execution reproduces the same partial effects.
	// unstable marks statements that rewrote the shard-partitioning
	// column, so recovery re-disables point routing for the table.
	LogStatement(src string, failed, unstable bool) (wait func() error, err error)
	// LogInsert records rows appended to this shard by a scatter-routed
	// INSERT, with the global row ids the shard registry assigned — the
	// merge keys recovery must re-derive exactly.
	LogInsert(table string, rows [][]uint64, globals []int) (wait func() error, err error)
}

// SetCommitLog installs the durability hook (nil disables it, the
// default). Install before serving traffic: the field itself is not
// synchronized.
func (db *DB) SetCommitLog(l CommitLog) { db.commitLog = l }

// CommitLog returns the installed durability hook (nil when volatile).
func (db *DB) CommitLog() CommitLog { return db.commitLog }

// Open creates a database on a fresh memory: the RC-NVM geometry, each
// table sliced into at least 16 chunks in the column-oriented layout.
func Open() (*DB, error) {
	geom := addr.Geometry{
		ChannelBits: 1, RankBits: 2, BankBits: 3, SubarrayBits: 3,
		RowBits: 10, ColumnBits: 10, DualAddress: true,
	}
	mem, err := funcmem.New(geom)
	if err != nil {
		return nil, err
	}
	return &DB{mem: mem, alloc: imdb.NewNVMAllocatorSpread(geom, 16), tables: make(map[string]*Table)}, nil
}

// Mem exposes the underlying memory (counters, footprint).
func (db *DB) Mem() *funcmem.Memory { return db.mem }

// EnableFaults installs a fault injector over the database's memory.
// Configure it before serving traffic: the injector's statistical
// parameters are read-only afterwards (its counters are atomic). Passing
// a disabled config removes injection.
func (db *DB) EnableFaults(cfg fault.Config) {
	db.inj = fault.New(db.mem.Geom(), cfg)
}

// Faults returns the installed fault injector (nil when fault-free).
func (db *DB) Faults() *fault.Injector { return db.inj }

// record appends one access to the handle's stream, if it has one; the
// stream folds it into the run it continues.
func (t *Table) record(c addr.Coord, o addr.Orientation, write bool) {
	if t.sink == nil {
		return
	}
	var k trace.Kind
	switch {
	case o == addr.Column && write:
		k = trace.CStore
	case o == addr.Column:
		k = trace.CLoad
	case write:
		k = trace.Store
	default:
		k = trace.Load
	}
	t.sink.Append(trace.Op{Kind: k, Coord: c})
}

// RowOnlyStream is trace.RowOnly: the same plan on a conventional memory.
// It stays for bench/, which calls it, until ROADMAP item 1e.
func RowOnlyStream(s trace.Stream) trace.Stream { return trace.RowOnly(s) }

// Table is a handle on one relation with materialized values. Deletion is
// by tombstone: row ids stay stable, deleted rows vanish from scans and
// aggregates. The handle a DB hands out records nothing; Traced gives one
// that records.
type Table struct {
	db       *DB
	place    *imdb.NVMPlacement
	capacity int
	runs     *runIndex
	*rowSet
	sink *trace.Stream // receives every access made through this handle; nil records nothing
}

// rowSet is what a table's handles share and mutate: the rows appended, and
// the live ones among them as a selection of the shape Where yields, so a
// scan of All walks them as it walks any WHERE result. A deleted row's bit
// is clear.
type rowSet struct {
	rows int
	live Sel // a bitmap; live.n counts the live rows
}

// Traced returns a handle on the same table — its rows, tombstones,
// placement and run index — that appends every memory access made through
// it to *s, one trace op per cell, folded into runs. Accesses made through
// any other handle never enter *s, so concurrent readers may each record
// their own. With s nil it returns t.
func (t *Table) Traced(s *trace.Stream) *Table {
	if s == nil {
		return t
	}
	h := *t
	h.sink = s
	return &h
}

// CreateTable allocates a table with a fixed capacity. Every field is at
// least one word and at most a memory row wide.
func (db *DB) CreateTable(name string, schema imdb.Schema, capacity int) (*Table, error) {
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q exists", name)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("engine: capacity must be positive")
	}
	if len(schema.Fields) == 0 {
		return nil, fmt.Errorf("engine: table %q has no fields", name)
	}
	// A field wider than a row is refused here, before the widths are summed,
	// so the sum cannot overflow past Place's tuple-width check.
	for _, f := range schema.Fields {
		if f.Words < 1 || f.Words > db.mem.Geom().Columns() {
			return nil, fmt.Errorf("engine: field %s of %q is %d words wide, want 1 to %d",
				f.Name, name, f.Words, db.mem.Geom().Columns())
		}
	}
	place, err := db.alloc.Place(imdb.NewTable(schema, capacity), imdb.ColMajor)
	if err != nil {
		return nil, err
	}
	t := &Table{db: db, place: place, capacity: capacity, runs: newRunIndex(db.mem, place), rowSet: &rowSet{}}
	db.tables[name] = t
	return t, nil
}

// Table looks a table up by name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// Schema returns the table schema.
func (t *Table) Schema() imdb.Schema { return t.place.Table().Schema }

// Rows returns the number of appended tuples (including tombstoned ones;
// row ids are stable).
func (t *Table) Rows() int { return t.rows }

// Live returns the number of non-deleted tuples.
func (t *Table) Live() int { return t.live.n }

// IsLive reports whether row exists and is not tombstoned.
func (t *Table) IsLive(row int) bool {
	return row >= 0 && row < t.rows && t.live.bits[row>>6]>>uint(row&63)&1 != 0
}

// LiveRows returns the ids of all non-deleted rows, ascending.
func (t *Table) LiveRows() []int { return t.RowIDs(All, 0) }

// Sel is a selection of a table's rows, what a WHERE yields and the
// aggregates, GROUP BY, Set and Delete consume: every live row (All), or
// the rows Where matched as a bitmap, one bit a row in one uint64 per 64
// rows. The scan under them reads a block of the bitmap that is all ones
// as one span and gathers only the set rows of any other; All is walked as
// the table's own bitmap of live rows. A selection holds for the table as
// it was when made: use it before the next mutation.
//
// The zero Sel selects nothing. All is a value of its own, so an empty
// match can never read as "every row".
type Sel struct {
	all  bool
	bits []uint64 // bit r%64 of bits[r/64] is row r
	list []int    // listed rows, in list order: the []int adapters' and Project's
	n    int      // rows selected, unless all
}

// All selects every live row.
var All = Sel{all: true}

// listed selects rows in list order, repeats included; a nil list selects
// nothing. A listed row out of range or deleted is an error when a read or
// a write reaches it.
func listed(rows []int) Sel { return Sel{list: rows, n: len(rows)} }

// orAll is listed, except that a nil list is every live row: the selection
// of the []int adapters, whose nil meant all.
func orAll(rows []int) Sel {
	if rows == nil {
		return All
	}
	return listed(rows)
}

// Count returns how many rows sel selects (a listed row as often as it is
// listed).
func (t *Table) Count(sel Sel) int {
	if sel.all {
		return t.live.n
	}
	return sel.n
}

// RowIDs returns the selected rows' ids — ascending, a listed selection's
// in list order — at most limit of them when limit > 0. It is for the
// operators that need an order of their own: ORDER BY, and a projection
// and its LIMIT.
func (t *Table) RowIDs(sel Sel, limit int) []int {
	n := t.Count(sel)
	if limit > 0 {
		n = min(n, limit)
	}
	out := make([]int, 0, n)
	if sel.list != nil {
		return append(out, sel.list[:n]...)
	}
	if sel.all {
		sel = t.live
	}
	for i := 0; i < len(sel.bits) && len(out) < n; i++ {
		for w := sel.bits[i]; w != 0 && len(out) < n; w &= w - 1 {
			out = append(out, i<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}

// Capacity returns the allocated tuple capacity.
func (t *Table) Capacity() int { return t.capacity }

// CellCoord returns the physical coordinate of one word of one tuple —
// the hook fault-injection tooling and tests use to target specific
// stored cells.
func (t *Table) CellCoord(row, word int) addr.Coord { return t.place.Cell(row, word) }

// checkLive rejects out-of-range and tombstoned rows.
func (t *Table) checkLive(row int) error {
	if row < 0 || row >= t.rows {
		return fmt.Errorf("engine: row %d out of range [0,%d)", row, t.rows)
	}
	if !t.IsLive(row) {
		return fmt.Errorf("engine: row %d is deleted", row)
	}
	return nil
}

// Delete tombstones the selected rows: it clears their bits of the live
// rows, a bitmap's or All's a word at a time. A listed row out of range or
// deleted is an error, and then nothing is deleted.
func (t *Table) Delete(sel Sel) error {
	for _, row := range sel.list {
		if err := t.checkLive(row); err != nil {
			return err
		}
	}
	live := t.live.bits
	for _, row := range sel.list { // a repeated row is deleted once
		t.live.n -= int(live[row>>6] >> uint(row&63) & 1)
		live[row>>6] &^= 1 << uint(row&63)
	}
	if sel.all {
		sel = t.live
	}
	for i, w := range sel.bits {
		t.live.n -= bits.OnesCount64(live[i] & w)
		live[i] &^= w
	}
	return nil
}

// Append stores one tuple and returns its row id.
func (t *Table) Append(vals ...uint64) (int, error) {
	row := t.rows
	if _, err := t.AppendRows([][]uint64{vals}); err != nil {
		return 0, err
	}
	return row, nil
}

// AppendRows stores tuples as rows Rows(), Rows()+1, … and returns how many
// it stored. At the first tuple of the wrong width, or the first that does
// not fit, it stops: the tuples before it are stored, and the error is the
// one Append gives for that tuple. The scanner stores them a block at a
// time, each word in its row's fetch orientation.
func (t *Table) AppendRows(rows [][]uint64) (int, error) {
	L := t.Schema().TupleWords()
	n, err := len(rows), error(nil)
	for i, vals := range rows {
		if len(vals) != L {
			n, err = i, fmt.Errorf("engine: tuple needs %d words, got %d", L, len(vals))
			break
		}
		if t.rows+i >= t.capacity {
			n, err = i, fmt.Errorf("engine: table full (%d rows)", t.capacity)
			break
		}
	}
	first := t.rows
	t.rows += n
	t.live.n += n
	if more := (t.rows+63)>>6 - len(t.live.bits); more > 0 {
		t.live.bits = append(t.live.bits, make([]uint64, more)...)
	}
	for p := first; p < t.rows; p += 64 - p&63 { // a word at a time
		t.live.bits[p>>6] |= (1<<uint(min(t.rows-p, 64-p&63)) - 1) << uint(p&63)
	}
	// The new rows are the live rows from first on: each block holds the
	// next seg of them.
	var words [8]int
	s := t.scan(All, appendWords(words[:0], 0, L)...)
	defer s.close()
	s.fetch, s.pos = true, first
	for i := 0; i < n; i += s.n {
		for j, vals := range rows[i:min(i+s.seg, n)] {
			for k, v := range vals {
				s.buf[k*s.seg+j] = v
			}
		}
		s.store()
	}
	return n, err
}

// Tuple reads a whole tuple, in its row's fetch orientation.
func (t *Table) Tuple(row int) ([]uint64, error) {
	vals, _, err := t.fetch(listed([]int{row}), appendWords(nil, 0, t.Schema().TupleWords()))
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// Field reads one field of one tuple (its words), as Tuple reads them.
func (t *Table) Field(row int, field string) ([]uint64, error) {
	out, err := t.Project([]int{row}, []string{field})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// SetField overwrites one field of one tuple, as Set does.
func (t *Table) SetField(row int, field string, vals ...uint64) error {
	return t.Set(listed([]int{row}), field, vals...)
}

// Set overwrites a field of every selected row, stored by the scanner a
// block at a time. Single-word fields use the field-scan orientation (a
// cstore on RC-NVM), wider ones the fetch orientation. The field and the
// number of words are checked before anything is written; a listed row out
// of range or deleted is an error once the rows before it were written.
func (t *Table) Set(sel Sel, field string, vals ...uint64) error {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		return err
	}
	if len(vals) != words {
		return fmt.Errorf("engine: field %s needs %d words, got %d", field, words, len(vals))
	}
	var offs [8]int
	s := t.scan(sel, appendWords(offs[:0], off, words)...)
	defer s.close()
	s.fetch = words > 1
	m := min(s.seg, t.Count(sel)) // the most tuples a block holds
	for k, v := range vals {
		seg := s.buf[k*s.seg:][:m]
		for i := range seg {
			seg[i] = v
		}
	}
	for s.store() {
	}
	return s.err
}

// blockWords is the size of a scan's value buffer: a block is as many
// tuples as fit, 512 of a one-word scan, 256 of GROUP BY's key and value.
// The buffer is field-major: each wanted word has a segment of its own, and
// a column run of the strips is copied into it whole.
const blockWords = 512

// scanner is the loop under every scan operator and every write: it reads
// the wanted words of the selected tuples a block at a time into a dense
// buffer, and the operator is a plain loop over that buffer; a write fills
// the buffer, and the scanner stores it. The tuples are a bitmap's set rows
// ascending — All's are the table's live rows — a block of all set rows
// read as a span; or listed rows in list order — a listed row out of range
// or deleted is an error once the rows before it were read or written.
//
// What the memory, a recorded trace and the fault injector see is each
// word accessed on its own in (tuple, wanted word) order — its trace op,
// then a write's wear count or a read's fault check: every cell read is
// counted, the one that fails included and none after it; the count
// reaches the memory's counters once, at close, a write's as it is stored.
// On an error, n counts the block's tuples read whole before it.
type scanner struct {
	t    *Table
	offs []int // the wanted tuple words, in read order
	sel  Sel
	pos  int // next index of a listed selection, else next row
	err  error

	// The current block is n tuples: rows first, first+1, … when span is
	// set, rows[:n] otherwise (a listed block that is one ascending run is a
	// span whose rows are written too; a bitmap's span writes none). vals
	// holds word offs[k] of the i-th at [k*seg+i]: seg is the most tuples a
	// block holds. vals is buf, or — for a borrowing scan whose block is one
	// run at stride 1 that nothing observes — the memory's page itself.
	n      int
	span   bool
	first  int
	seg    int
	rows   [blockWords]int
	vals   []uint64
	buf    []uint64
	borrow bool     // the operator only reads the one word it scans
	tuple  []uint64 // ScanWhere's words of one tuple of a multi-word field

	// fetch makes the counters, the trace and a fault error see each cell
	// in its row's fetch orientation, the one a tuple is read in, rather
	// than the orientation the scan reads it along.
	fetch   bool
	cells   [2]int  // read so far, by orientation
	at      []runAt // observe's place in each wanted word's column
	matches []int   // ScanWhere's result before it is cut to size
}

// runAt is one answer of imdb's ScanRun: word off of tuples first … first+n-1
// lies at c, c.Along(o, step), c.Along(o, 2·step), … and is seen in
// orientation seen.
type runAt struct {
	first, n int
	c        addr.Coord
	o, seen  addr.Orientation
	step     int
}

// Scanners are recycled: 8 KB of buffers allocated (or cleared on the stack)
// per scan would cost a 64-row point read more than its cells do.
var scanners = sync.Pool{New: func() any { return &scanner{buf: make([]uint64, blockWords)} }}

// scan starts a scan of tuple words offs over the selected rows. The
// caller loops over next and then closes the scanner.
func (t *Table) scan(sel Sel, offs ...int) *scanner {
	if sel.all {
		sel = t.live
	}
	s := scanners.Get().(*scanner)
	s.t, s.sel = t, sel
	s.offs, s.at = append(s.offs[:0], offs...), s.at[:0]
	if len(offs) > len(s.buf) { // a field wider than a block goes a tuple at a time
		s.buf = make([]uint64, len(offs))
	}
	s.seg = min(len(s.buf)/len(offs), blockWords)
	return s
}

// row is the row id of the block's i-th tuple.
func (s *scanner) row(i int) int {
	if s.span {
		return s.first + i
	}
	return s.rows[i]
}

// orient is the orientation a cell of row is counted and recorded in.
func (s *scanner) orient(row int) addr.Orientation {
	if s.fetch {
		return s.t.place.FetchOrient(row)
	}
	return s.t.place.ScanOrient(row)
}

// next reads the next block, false when the tuples are exhausted or s.err
// is set.
func (s *scanner) next() bool { return s.move(false) }

// store writes the next block as next reads it: word offs[k] of its i-th
// tuple from buf[k*seg+i], which the caller filled for the next seg tuples
// of the selection.
func (s *scanner) store() bool { return s.move(true) }

// move walks to the next block and reads it into buf, or writes it from
// there.
func (s *scanner) move(write bool) bool {
	if s.err != nil {
		return false
	}
	t, most, n := s.t, s.seg, 0
	var bad error
	s.span = false
	if list := s.sel.list; list != nil {
		// A block of listed rows that ascend one by one is read as a span.
		first, run := 0, true
		if s.pos < len(list) {
			first = list[s.pos]
		}
		for ; n < most && s.pos < len(list); s.pos++ {
			row := list[s.pos]
			if !t.IsLive(row) {
				bad = t.checkLive(row)
				break
			}
			if row != first+n {
				run = false
			}
			s.rows[n] = row
			n++
		}
		s.span, s.first = run && n > 0, first
	} else {
		n = s.nextBits(most)
	}
	s.n, s.vals = n, s.buf
	for k, off := range s.offs {
		s.fill(off, s.buf[k*most:], write)
	}
	if t.sink != nil || t.db.inj != nil {
		if s.err = s.observe(write); s.err != nil {
			return false
		}
	}
	s.err = bad
	return n > 0 && bad == nil
}

// nextBits gathers the set rows among the bitmap's next most rows into the
// block, and reads a stretch of nothing but set bits as a span. A block
// starts where the last one ended, or past it at the next word with a bit
// set; the words with no bit set are stepped over one by one, and so is a
// stretch of most rows with none (most is below 64 for a field wider than
// 8 words).
func (s *scanner) nextBits(most int) (n int) {
	bm, last := s.sel.bits, min(len(s.sel.bits)<<6, s.t.rows)
	for n == 0 && s.pos < last {
		if i := s.pos >> 6; bm[i]>>uint(s.pos&63) == 0 {
			for i++; i < len(bm) && bm[i] == 0; i++ {
			}
			s.pos = i << 6
			continue
		}
		first, end := s.pos, min(s.pos+most, last)
		s.pos = end
		// With every bit below last set (All with no tombstone), every
		// stretch is full without a look at its words.
		full := true
		for p := first; p < end && full && s.sel.n < last; p += 64 - p&63 {
			full = bits.OnesCount64(bitsFrom(bm, p, end)) == min(64-p&63, end-p)
		}
		if full {
			s.span, s.first = true, first
			return end - first
		}
		for p := first; p < end; p += 64 - p&63 {
			for w := bitsFrom(bm, p, end); w != 0; w &= w - 1 {
				s.rows[n] = p + bits.TrailingZeros64(w)
				n++
			}
		}
	}
	return n
}

// bitsFrom is the word of bm holding row p, shifted so that bit 0 is row p
// and cut at row end or the word's last row.
func bitsFrom(bm []uint64, p, end int) uint64 {
	w := bm[p>>6] >> uint(p&63)
	if k := end - p; k < 64 {
		w &= 1<<uint(k) - 1
	}
	return w
}

// fill stores tuple word off of the block's tuples at dst[0], dst[1], …,
// or with write stores dst[0], dst[1], … as that word, run by run, each run
// as the table's run index holds it. A span is a copy of each run, a row
// list a gather of the rows that fall in it, or for a write a put and a
// scatter, counted at once. A borrowing scan reads a span that is one run
// in place, when nothing observes its cells.
func (s *scanner) fill(off int, dst []uint64, write bool) {
	t, mem := s.t, s.t.db.mem
	for i, n := 0, 0; i < s.n; i += n {
		row := s.row(i)
		r := t.runs.find(row, off)
		seen := r.scan
		if s.fetch {
			seen = r.fetch
		}
		run := r.view(mem, row, write)
		if write {
			if s.span {
				n = min(run.Len(), s.n-i)
				run.Put(dst[i:], n)
			} else {
				n = run.Scatter(dst[i:], s.rows[i:s.n])
			}
			mem.CountWrites(seen, n)
			continue
		}
		if s.span {
			n = min(run.Len(), s.n-i)
			if w := s.inPlace(run, n); w != nil {
				s.vals = w
			} else {
				run.Copy(dst[i:], n)
			}
		} else {
			n = run.Gather(dst[i:], s.rows[i:s.n])
		}
		s.cells[seen] += n
	}
}

// inPlace is the page a borrowing scan reads its block from: the block's
// n words of run, when they are the whole block, lie one after the other
// and nothing observes them; nil otherwise.
func (s *scanner) inPlace(run funcmem.Run, n int) []uint64 {
	if !s.borrow || n != s.n || s.t.sink != nil || s.t.db.inj != nil {
		return nil
	}
	return run.Words(n)
}

// observe passes the block's cells, in (tuple, wanted word) order, through
// what a single access goes through, and is the only place the engine does:
// the trace op, then for a write the wear count, for a read the fault
// check, whose corrected word replaces the stored one. At an uncorrectable
// word it takes the cells after it back out of the count and cuts the block
// to the tuples before it.
func (s *scanner) observe(write bool) error {
	t, inj, w := s.t, s.t.db.inj, len(s.offs)
	for len(s.at) < w {
		s.at = append(s.at, runAt{})
	}
	for i := 0; i < s.n; i++ {
		row := s.row(i)
		for k, off := range s.offs {
			r := &s.at[k]
			j := row - r.first
			if uint(j) >= uint(r.n) {
				r.c, r.o, r.step, r.n = t.place.ScanRun(row, off)
				r.first, j, r.seen = row, 0, s.orient(row)
			}
			c := r.c.Along(r.o, j*r.step)
			t.record(c, r.seen, write)
			if inj == nil {
				continue
			}
			if write {
				inj.RecordWrite(c)
				continue
			}
			v, err := inj.CheckWord(c, r.seen, s.vals[k*s.seg+i])
			if err != nil {
				s.cells[r.seen] -= w - 1 - k
				for n := i + 1; n < s.n; n++ {
					s.cells[s.orient(s.row(n))] -= w
				}
				s.n = i
				return err
			}
			s.vals[k*s.seg+i] = v
		}
	}
	return nil
}

// close adds the cells read to the memory's access counters and recycles
// the scanner.
func (s *scanner) close() {
	for o, n := range s.cells {
		if n != 0 {
			s.t.db.mem.CountReads(addr.Orientation(o), n)
		}
	}
	if cap(s.matches) > maxKeptMatches {
		s.matches = nil
	}
	s.t, s.sel, s.pos, s.err, s.n, s.fetch, s.borrow, s.vals = nil, Sel{}, 0, nil, 0, false, false, nil
	s.cells, s.matches = [2]int{}, s.matches[:0]
	scanners.Put(s)
}

// maxKeptMatches bounds the match scratch a recycled scanner holds on to
// (512 KB).
const maxKeptMatches = 1 << 16

// ScanWhere evaluates pred over one field of every tuple (column-oriented
// on RC-NVM) and returns the matching row ids, ascending. pred is called
// exactly once for each live row, in ascending row order, with the field's
// words, which it may read only during the call; callers collect values
// through it (sql's join-key scan does). When ScanWhere returns an error,
// pred has seen some prefix of the rows read.
func (t *Table) ScanWhere(field string, pred func(vals []uint64) bool) ([]int, error) {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		return nil, err
	}
	var one [1]int // a single-word field's offset stays on the stack
	s := t.scan(All, appendWords(one[:0], off, words)...)
	defer s.close()
	// The matches cannot be counted ahead of time — pred runs once — so
	// they gather in the scanner's recycled scratch and are copied out at
	// their final size. A multi-word field's words are gathered out of their
	// segments into the scanner's tuple scratch.
	if cap(s.tuple) < words {
		s.tuple = make([]uint64, words)
	}
	tuple := s.tuple[:words]
	for s.next() {
		for i := 0; i < s.n; i++ {
			vals := s.vals[i : i+1]
			if words > 1 {
				for k := range tuple {
					tuple[k] = s.vals[k*s.seg+i]
				}
				vals = tuple
			}
			if pred(vals) {
				s.matches = append(s.matches, s.row(i))
			}
		}
	}
	if s.err != nil || len(s.matches) == 0 {
		return nil, s.err
	}
	return slices.Clone(s.matches), nil
}

// Op is a WHERE comparison of a field with a constant.
type Op uint8

const (
	Eq Op = iota // =
	Ne           // !=
	Lt           // <
	Le           // <=
	Gt           // >
	Ge           // >=
)

// rangeOf compiles op against v into one unsigned range test: x matches
// when x-lo <= width holds, or for in == 0 when it does not. < and > are
// the negations of >= and <=, so < 0 and > MaxUint64 negate the full range
// and match nothing.
func (op Op) rangeOf(v uint64) (lo, width, in uint64, err error) {
	switch op {
	case Eq, Ne:
		lo, width = v, 0
	case Le, Gt:
		lo, width = 0, v
	case Ge, Lt:
		lo, width = v, ^uint64(0)-v
	default:
		return 0, 0, 0, fmt.Errorf("engine: unknown comparison %d", op)
	}
	if op == Eq || op == Le || op == Ge {
		in = 1
	}
	return lo, width, in, nil
}

// Where selects the rows of sel whose single-word field compares with v by
// op. Over All it reads the column of every live row; over another
// selection it reads only the selected rows, each as Field reads it: the
// counters, the trace and a fault error take its cell in the row's fetch
// orientation, so filtering a conjunction's earlier matches records what a
// per-row filter did. The matches are a bitmap, built a word at a time.
func (t *Table) Where(field string, op Op, v uint64, sel Sel) (Sel, error) {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		return Sel{}, err
	}
	if words != 1 {
		return Sel{}, fmt.Errorf("engine: WHERE on multi-word field %s", field)
	}
	lo, width, in, err := op.rangeOf(v)
	if err != nil {
		return Sel{}, err
	}
	s := t.scan(sel, off)
	defer s.close()
	s.fetch, s.borrow = !sel.all, true
	out := make([]uint64, (t.rows+63)>>6)
	for s.next() {
		vals, i := s.vals[:s.n], 0
		if s.span && s.first&63 == 0 {
			i = len(vals) &^ 63
			matchWords(out[s.first>>6:], vals[:i], lo, width, in)
		}
		for ; i < len(vals); i++ {
			row := s.row(i)
			_, miss := bits.Add64(vals[i]-lo, ^width, 0)
			out[row>>6] |= (miss ^ in) << uint(row&63)
		}
	}
	if s.err != nil {
		return Sel{}, s.err
	}
	n := 0
	for _, w := range out {
		n += bits.OnesCount64(w)
	}
	return Sel{bits: out, n: n}, nil
}

// matchWords is Where's range test over whole bitmap words of values, ORed
// into out a word at a time: bit b of out[k] is set when vals[64k+b]-lo <=
// width holds, or for in == 0 when it does not. x-lo exceeds width exactly
// when x-lo + ^width carries, and each carry is added into the word, last
// value first, so a value costs two adds and an add with carry; a word is
// two such chains, its low and its high half.
func matchWords(out, vals []uint64, lo, width, in uint64) {
	over, flip := ^width, -in
	for k := 0; len(vals) > 0; k++ {
		x := (*[64]uint64)(vals)
		var w, hi uint64
		for i := 31; i >= 0; i-- {
			_, miss := bits.Add64(x[i]-lo, over, 0)
			w, _ = bits.Add64(w, w, miss)
			_, miss = bits.Add64(x[i+32]-lo, over, 0)
			hi, _ = bits.Add64(hi, hi, miss)
		}
		out[k] |= (w | hi<<32) ^ flip
		vals = vals[64:]
	}
}

// The []int forms of Sum, Avg, Group and Set, with nil for every live row
// in the first three, stay for bench/, which compiles against them, until
// ROADMAP item 1e. A list is read in list order, repeats included.

// SumField is Sum over listed rows.
func (t *Table) SumField(field string, rows []int) (uint64, error) { return t.Sum(field, orAll(rows)) }

// AvgField is Avg over listed rows.
func (t *Table) AvgField(field string, rows []int) (float64, error) { return t.Avg(field, orAll(rows)) }

// GroupSum is Group over listed rows.
func (t *Table) GroupSum(keyField, sumField string, rows []int) ([]GroupRow, error) {
	return t.Group(keyField, sumField, orAll(rows))
}

// Update is Set over listed rows; a nil list writes nothing.
func (t *Table) Update(rows []int, field string, vals ...uint64) error {
	return t.Set(listed(rows), field, vals...)
}

// Sum sums a single-word field over the selected rows.
func (t *Table) Sum(field string, sel Sel) (uint64, error) {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		return 0, err
	}
	if words != 1 {
		return 0, fmt.Errorf("engine: SUM over multi-word field %s", field)
	}
	s := t.scan(sel, off)
	defer s.close()
	s.borrow = true
	var sum uint64
	for s.next() {
		for _, v := range s.vals[:s.n] {
			sum += v
		}
	}
	if s.err != nil {
		return 0, s.err
	}
	return sum, nil
}

// Avg averages a single-word field over the selected rows.
func (t *Table) Avg(field string, sel Sel) (float64, error) {
	n := t.Count(sel)
	if n == 0 {
		return 0, fmt.Errorf("engine: AVG over zero rows")
	}
	sum, err := t.Sum(field, sel)
	if err != nil {
		return 0, err
	}
	return float64(sum) / float64(n), nil
}

// Project materializes the given fields of the given rows, in list order,
// with one fetch: the tuples share one backing array. A listed row out of
// range or deleted is an error once the rows before it were read; an
// unknown field is one once the first row is checked. With no fields, each
// row's tuple is empty and the rows are not checked.
func (t *Table) Project(rows []int, fields []string) ([][]uint64, error) {
	out := make([][]uint64, len(rows))
	if len(rows) == 0 {
		return out, nil
	}
	var buf [8]int
	offs := buf[:0]
	for _, f := range fields {
		off, n, err := t.Schema().FieldOffset(f)
		if err != nil {
			return nil, cmp.Or(t.checkLive(rows[0]), err)
		}
		offs = appendWords(offs, off, n)
	}
	if len(offs) == 0 {
		return out, nil
	}
	vals, _, err := t.fetch(listed(rows), offs)
	if err != nil {
		return nil, err
	}
	w := len(offs)
	for i := range out {
		out[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return out, nil
}

// fetch reads tuple words offs of the selected rows into one array, tuple
// after tuple, each cell seen in its row's fetch orientation: tuple i is
// vals[i*len(offs) : (i+1)*len(offs)]. n counts the tuples read whole; on
// an error the failing one is the n-th.
func (t *Table) fetch(sel Sel, offs []int) (vals []uint64, n int, err error) {
	w := len(offs)
	vals = make([]uint64, t.Count(sel)*w)
	s := t.scan(sel, offs...)
	defer s.close()
	s.fetch = true
	for more := true; more; n += s.n {
		more = s.next()
		for k := range offs {
			for i, v := range s.vals[k*s.seg : k*s.seg+s.n] {
				vals[(n+i)*w+k] = v
			}
		}
	}
	return vals, n, s.err
}

// appendWords appends the tuple words off, off+1, …, off+n-1 to offs.
func appendWords(offs []int, off, n int) []int {
	for k := 0; k < n; k++ {
		offs = append(offs, off+k)
	}
	return offs
}

// MinMax returns the minimum and maximum of a single-word field over the
// selected rows.
func (t *Table) MinMax(field string, sel Sel) (min, max uint64, err error) {
	off, words, err := t.Schema().FieldOffset(field)
	if err != nil {
		return 0, 0, err
	}
	if words != 1 {
		return 0, 0, fmt.Errorf("engine: MIN/MAX over multi-word field %s", field)
	}
	if t.Count(sel) == 0 {
		return 0, 0, fmt.Errorf("engine: MIN/MAX over zero rows")
	}
	s := t.scan(sel, off)
	defer s.close()
	s.borrow = true
	min, max = ^uint64(0), 0
	for s.next() {
		for _, v := range s.vals[:s.n] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	if s.err != nil {
		return 0, 0, s.err
	}
	return min, max, nil
}

// GroupRow is one GROUP BY result.
type GroupRow struct {
	Key   uint64
	Sum   uint64
	Count int
}

// Group groups the selected rows by a single-word key field and sums a
// single-word aggregate field per group. Results are ordered by ascending
// key.
func (t *Table) Group(keyField, sumField string, sel Sel) ([]GroupRow, error) {
	offK, wordsK, err := t.Schema().FieldOffset(keyField)
	if err != nil {
		return nil, err
	}
	offS, wordsS, err := t.Schema().FieldOffset(sumField)
	if err != nil {
		return nil, err
	}
	if wordsK != 1 || wordsS != 1 {
		return nil, fmt.Errorf("engine: GROUP BY needs single-word fields")
	}
	// Key then value of each row, so the recorded stream interleaves the
	// two columns the way a tuple-at-a-time GROUP BY touches them.
	s := t.scan(sel, offK, offS)
	defer s.close()
	// A key below 64 is its group's index; the others go to a hash table,
	// which starts on the stack too.
	var small, few [64]GroupRow
	acc := groupTable{slots: few[:]}
	for s.next() {
		keys, sums := s.vals[:s.n], s.vals[s.seg:s.seg+s.n]
		for i, k := range keys {
			var g *GroupRow
			if k < uint64(len(small)) {
				g = &small[k]
			} else if g = acc.find(k); g.Count == 0 {
				g = acc.insert(k)
			}
			g.Sum += sums[i]
			g.Count++
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	n := acc.used
	for _, g := range small {
		if g.Count != 0 {
			n++
		}
	}
	out := make([]GroupRow, 0, n)
	for k, g := range small {
		if g.Count != 0 {
			g.Key = uint64(k)
			out = append(out, g)
		}
	}
	for _, g := range acc.slots {
		if g.Count != 0 {
			out = append(out, g)
		}
	}
	slices.SortFunc(out, func(a, b GroupRow) int { return cmp.Compare(a.Key, b.Key) })
	return out, nil
}

// groupTable is GroupSum's accumulator, an open-addressed table of groups:
// a power of two of slots, at most half of them used, Count == 0 marking a
// free one; Fibonacci hashing, linear probing. It doubles when half full.
type groupTable struct {
	slots []GroupRow
	used  int
}

// find returns the slot holding key, or the free one where it belongs.
func (t *groupTable) find(key uint64) *GroupRow {
	mask := uint64(len(t.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> (64 - uint(bits.Len64(mask))); ; i++ {
		if g := &t.slots[i&mask]; g.Count == 0 || g.Key == key {
			return g
		}
	}
}

// insert claims the slot of a key the table does not hold yet, after
// doubling the table if it is half full.
func (t *groupTable) insert(key uint64) *GroupRow {
	if 2*t.used >= len(t.slots) {
		old := t.slots
		t.slots = make([]GroupRow, 2*len(old))
		for _, g := range old {
			if g.Count != 0 {
				*t.find(g.Key) = g
			}
		}
	}
	t.used++
	g := t.find(key)
	g.Key = key
	return g
}
