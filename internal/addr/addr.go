// Package addr implements the dual addressing schemes of RC-NVM (HPCA'18,
// Figure 7). The same physical location has two 32-bit encodings: a
// row-oriented address, whose low-order bits walk along a physical row of a
// subarray, and a column-oriented address, whose low-order bits walk down a
// physical column. The two encodings differ only in the order of the Row and
// Column bit fields, which makes converting between them a cheap bit
// permutation — exactly the property the paper relies on for its memory
// controller and ISA extension (cload/cstore).
//
// A Geometry describes the bit widths of every address field. Conventional
// single-buffer memories (DRAM, plain RRAM) use a Geometry with
// SubarrayBits == 0 and only the row-oriented encoding.
package addr

import (
	"errors"
	"fmt"
)

// Orientation selects which of the two address encodings (and which of the
// two device buffers) an access uses.
type Orientation uint8

const (
	// Row is the conventional row-oriented encoding/access.
	Row Orientation = iota
	// Column is the column-oriented encoding/access enabled by RC-NVM.
	Column
)

// Perp returns the perpendicular orientation.
func (o Orientation) Perp() Orientation {
	if o == Row {
		return Column
	}
	return Row
}

func (o Orientation) String() string {
	switch o {
	case Row:
		return "row"
	case Column:
		return "column"
	default:
		return fmt.Sprintf("Orientation(%d)", uint8(o))
	}
}

// WordBytes is the granularity of both row- and column-oriented accesses:
// one 8-byte memory word (the "IntraBus" field of the paper addresses a byte
// within this word).
const WordBytes = 8

// WordBits is the number of address bits covered by one word.
const WordBits = 3

// Geometry describes how a 32-bit physical address is split into device
// coordinates. Field widths are in bits. The row-oriented layout, from most
// to least significant, is
//
//	Channel | Rank | Bank | Subarray | Row | Column | IntraBus
//
// and the column-oriented layout swaps the Row and Column fields. The total
// must not exceed 32 bits.
type Geometry struct {
	ChannelBits  uint
	RankBits     uint
	BankBits     uint
	SubarrayBits uint
	RowBits      uint
	ColumnBits   uint

	// DualAddress reports whether the device supports the column-oriented
	// encoding at all. DRAM and plain RRAM geometries set this false.
	DualAddress bool

	// Interleaved selects the conventional controller address mapping
	// that spreads sequential data across channels and banks: from most
	// to least significant, Row | Subarray | Rank | Bank | Channel |
	// Column | IntraBus. A sequential stream then fills one row buffer
	// per channel and rotates over all banks before reusing one — the
	// standard DRAM performance mapping. The RC-NVM geometry instead
	// keeps the hierarchical Figure 7 layout (false), because its
	// software controls placement explicitly and gets bank parallelism
	// from chunk placement.
	Interleaved bool
}

// AddrBits returns the width of an address in either encoding: addresses
// run from 0 to 1<<AddrBits - 1, and Decode ignores any bit above that.
func (g Geometry) AddrBits() uint {
	return g.ChannelBits + g.RankBits + g.BankBits + g.SubarrayBits +
		g.RowBits + g.ColumnBits + WordBits
}

// Validate checks that the geometry fits a 32-bit address.
func (g Geometry) Validate() error {
	if total := g.AddrBits(); total > 32 {
		return fmt.Errorf("addr: geometry needs %d bits, exceeds 32", total)
	}
	if g.RowBits == 0 || g.ColumnBits == 0 {
		return errors.New("addr: geometry needs at least one row and column bit")
	}
	return nil
}

// Channels returns the number of channels.
func (g Geometry) Channels() int { return 1 << g.ChannelBits }

// Ranks returns the number of ranks per channel.
func (g Geometry) Ranks() int { return 1 << g.RankBits }

// Banks returns the number of banks per rank.
func (g Geometry) Banks() int { return 1 << g.BankBits }

// Subarrays returns the number of subarrays per bank.
func (g Geometry) Subarrays() int { return 1 << g.SubarrayBits }

// Rows returns the number of rows per subarray.
func (g Geometry) Rows() int { return 1 << g.RowBits }

// Columns returns the number of word columns per row.
func (g Geometry) Columns() int { return 1 << g.ColumnBits }

// RowBytes returns the size of one physical row (= row buffer size).
func (g Geometry) RowBytes() int { return g.Columns() * WordBytes }

// ColumnBytes returns the size of one physical column (= column buffer
// size).
func (g Geometry) ColumnBytes() int { return g.Rows() * WordBytes }

// SubarrayBytes returns the capacity of one subarray.
func (g Geometry) SubarrayBytes() int { return g.Rows() * g.Columns() * WordBytes }

// TotalBytes returns the capacity of the whole memory.
func (g Geometry) TotalBytes() int64 {
	return int64(g.Channels()) * int64(g.Ranks()) * int64(g.Banks()) *
		int64(g.Subarrays()) * int64(g.SubarrayBytes())
}

// TotalBanks returns the number of banks across all channels and ranks.
func (g Geometry) TotalBanks() int { return g.Channels() * g.Ranks() * g.Banks() }

// Coord is a fully decoded physical location: one byte inside one 8-byte
// word of one subarray cell. It is the canonical identity of a location —
// both the row-oriented and the column-oriented address of a location decode
// to the same Coord.
type Coord struct {
	Channel  uint32
	Rank     uint32
	Bank     uint32
	Subarray uint32
	Row      uint32
	Column   uint32
	Byte     uint32 // byte within the 8-byte word
}

// Along returns c moved k words along orientation o: k columns further in
// its row for Row, k rows further down its column for Column.
func (c Coord) Along(o Orientation, k int) Coord {
	if o == Row {
		c.Column += uint32(k)
	} else {
		c.Row += uint32(k)
	}
	return c
}

// BankID returns a dense index of the bank across the whole memory,
// suitable for array indexing: channel-major, then rank, then bank.
func (g Geometry) BankID(c Coord) int {
	return ((int(c.Channel)<<g.RankBits)|int(c.Rank))<<g.BankBits | int(c.Bank)
}

// Encode produces the address of c in the given orientation.
func (g Geometry) Encode(c Coord, o Orientation) uint32 {
	var hi, lo uint32
	var hiBits, loBits uint
	if o == Row {
		hi, hiBits = c.Row, g.RowBits
		lo, loBits = c.Column, g.ColumnBits
	} else {
		hi, hiBits = c.Column, g.ColumnBits
		lo, loBits = c.Row, g.RowBits
	}
	if g.Interleaved {
		a := hi
		a = a<<g.SubarrayBits | c.Subarray
		a = a<<g.RankBits | c.Rank
		a = a<<g.BankBits | c.Bank
		a = a<<g.ChannelBits | c.Channel
		a = a<<loBits | lo
		a = a<<WordBits | c.Byte
		return a
	}
	a := c.Channel
	a = a<<g.RankBits | c.Rank
	a = a<<g.BankBits | c.Bank
	a = a<<g.SubarrayBits | c.Subarray
	a = a<<hiBits | hi
	a = a<<loBits | lo
	a = a<<WordBits | c.Byte
	return a
}

// Decode splits an address in the given orientation back into coordinates.
func (g Geometry) Decode(a uint32, o Orientation) Coord {
	var c Coord
	c.Byte = a & mask(WordBits)
	a >>= WordBits
	var hiBits, loBits uint
	if o == Row {
		hiBits, loBits = g.RowBits, g.ColumnBits
	} else {
		hiBits, loBits = g.ColumnBits, g.RowBits
	}
	lo := a & mask(loBits)
	a >>= loBits
	var hi uint32
	if g.Interleaved {
		c.Channel = a & mask(g.ChannelBits)
		a >>= g.ChannelBits
		c.Bank = a & mask(g.BankBits)
		a >>= g.BankBits
		c.Rank = a & mask(g.RankBits)
		a >>= g.RankBits
		c.Subarray = a & mask(g.SubarrayBits)
		a >>= g.SubarrayBits
		hi = a & mask(hiBits)
	} else {
		hi = a & mask(hiBits)
		a >>= hiBits
		c.Subarray = a & mask(g.SubarrayBits)
		a >>= g.SubarrayBits
		c.Bank = a & mask(g.BankBits)
		a >>= g.BankBits
		c.Rank = a & mask(g.RankBits)
		a >>= g.RankBits
		c.Channel = a & mask(g.ChannelBits)
	}
	if o == Row {
		c.Row, c.Column = hi, lo
	} else {
		c.Column, c.Row = hi, lo
	}
	return c
}

// Convert translates an address from one orientation's encoding to the
// other's, i.e. the Row2ColAddr/Col2RowAddr primitive of the paper (§4.4).
func (g Geometry) Convert(a uint32, from Orientation) uint32 {
	return g.Encode(g.Decode(a, from), from.Perp())
}

func mask(bits uint) uint32 {
	return uint32(1)<<bits - 1
}

// LineWords is the number of 8-byte words in one cache line.
const LineWords = 8

// LineBytes is the cache line size used throughout the system (Table 1).
const LineBytes = LineWords * WordBytes

// LineID identifies one cache-line-sized span of memory together with the
// orientation it was fetched in. A row-oriented line covers 8 consecutive
// word columns of one row; a column-oriented line covers 8 consecutive rows
// of one word column. Lines of perpendicular orientation can intersect in
// exactly one 8-byte word — the synonym ("crossing") problem of §4.3.
type LineID struct {
	Orient   Orientation
	Channel  uint8
	Rank     uint8
	Bank     uint8
	Subarray uint8
	Major    uint16 // row index for Row lines, column index for Column lines
	Minor    uint16 // base (8-aligned) column index for Row lines, row index for Column lines
}

// LineOf returns the line containing coordinate c when accessed with
// orientation o.
func (g Geometry) LineOf(c Coord, o Orientation) LineID {
	id := LineID{
		Orient:   o,
		Channel:  uint8(c.Channel),
		Rank:     uint8(c.Rank),
		Bank:     uint8(c.Bank),
		Subarray: uint8(c.Subarray),
	}
	if o == Row {
		id.Major = uint16(c.Row)
		id.Minor = uint16(c.Column &^ (LineWords - 1))
	} else {
		id.Major = uint16(c.Column)
		id.Minor = uint16(c.Row &^ (LineWords - 1))
	}
	return id
}

// Base returns the coordinate of the first word covered by the line.
func (id LineID) Base() Coord {
	c := Coord{
		Channel:  uint32(id.Channel),
		Rank:     uint32(id.Rank),
		Bank:     uint32(id.Bank),
		Subarray: uint32(id.Subarray),
	}
	if id.Orient == Row {
		c.Row = uint32(id.Major)
		c.Column = uint32(id.Minor)
	} else {
		c.Column = uint32(id.Major)
		c.Row = uint32(id.Minor)
	}
	return c
}

// WordCoord returns the coordinate of the i-th word (0..7) covered by the
// line.
func (id LineID) WordCoord(i int) Coord { return id.Base().Along(id.Orient, i) }

// Addr returns the address of the first byte of the line in its own
// orientation's encoding.
func (g Geometry) LineAddr(id LineID) uint32 {
	return g.Encode(id.Base(), id.Orient)
}

// Crossings returns the up-to-8 perpendicular lines that intersect line id,
// together with, for each, the word index (0..7) inside id at which the
// intersection occurs. This is the set of cache blocks the paper's crossing
// bits must track (§4.3.2, Figure 8).
func (g Geometry) Crossings(id LineID) [LineWords]LineID {
	var out [LineWords]LineID
	for i := 0; i < LineWords; i++ {
		w := id.WordCoord(i)
		out[i] = g.LineOf(w, id.Orient.Perp())
	}
	return out
}

// CrossWordIndex returns the word index within the perpendicular line at
// which it intersects line id at id's word i. For a row line, word i lies
// in column Minor+i at row Major; within the crossing column line the word
// index is Major modulo LineWords (and symmetrically for column lines).
func (id LineID) CrossWordIndex() int {
	return int(id.Major) % LineWords
}

func (id LineID) String() string {
	return fmt.Sprintf("%s line ch%d rk%d bk%d sa%d major=%d minor=%d",
		id.Orient, id.Channel, id.Rank, id.Bank, id.Subarray, id.Major, id.Minor)
}
