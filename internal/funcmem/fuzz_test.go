package funcmem

import (
	"encoding/binary"
	"testing"

	"rcnvm/internal/addr"
)

// FuzzRun runs a fuzzed program of run writes, single-word writes, run
// copies and run gathers on a memory of a fuzzed geometry (256 to 65 536
// rows, 8 to 1 024 columns) against a map of the words written. Every word
// a run reads or a program ends with must be the model's, through Run and
// through ReadCoord in both orientations; every run must be cut exactly at
// its strip's edge; the footprint must be one page per page written.
//
// An instruction is 7 bytes: op/subarray/orientation, row (2), column (2),
// step, n.
func FuzzRun(f *testing.F) {
	f.Add(uint8(2), uint8(7), []byte{
		0x00, 0xfe, 0x01, 0x06, 0x00, 0x00, 0x17, // column run written across rows 510-512
		0x42, 0xfc, 0x01, 0x06, 0x00, 0x01, 0x09, // row Run from column 6
		0x83, 0xf0, 0x01, 0x07, 0x00, 0x02, 0x05, // column Gather
		0x41, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, // row run written at the line's last word
	})
	f.Add(uint8(0), uint8(0), []byte{0x40, 0xff, 0x00, 0x05, 0x00, 0x00, 0x27, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x27})
	f.Fuzz(func(t *testing.T, rowSel, colSel uint8, prog []byte) {
		geom := addr.Geometry{ChannelBits: 1, RankBits: 1, SubarrayBits: 1,
			RowBits: 8 + uint(rowSel)%9, ColumnBits: 3 + uint(colSel)%8, DualAddress: true}
		m, err := New(geom)
		if err != nil {
			t.Fatal(err)
		}
		model := make(map[addr.Coord]uint64)
		var dst []uint64
		for i := 0; len(prog) >= 7; i, prog = i+1, prog[7:] {
			in := prog[:7]
			c := addr.Coord{Channel: 1, Subarray: uint32(in[0] >> 7),
				Row:    uint32(binary.LittleEndian.Uint16(in[1:])) % uint32(geom.Rows()),
				Column: uint32(binary.LittleEndian.Uint16(in[3:])) % uint32(geom.Columns())}
			o := addr.Orientation(in[0] >> 6 & 1)
			step, n := 1+int(in[5]%8), 1+int(in[6]%40)
			val := func(k int) uint64 { return uint64(i+1)<<32 | uint64(k) }
			switch in[0] % 4 {
			case 0: // a run written whole
				r := run(m, c, o, step, n, true)
				checkCut(t, geom, c, o, step, n, r)
				dst = dst[:0]
				for k := 0; k < r.Len(); k++ {
					dst = append(dst, val(k))
					model[c.Along(o, k*step)] = val(k)
				}
				r.Put(dst, r.Len())
			case 1: // one word through an encoded address
				m.WriteWord(geom.Encode(c, o), o, val(0))
				model[c] = val(0)
			case 2: // a run copied out whole
				r := run(m, c, o, step, n, false)
				checkCut(t, geom, c, o, step, n, r)
				dst = append(dst[:0], make([]uint64, r.Len())...)
				r.Copy(dst, r.Len())
				for k, got := range dst {
					if want := model[c.Along(o, k*step)]; got != want {
						t.Fatalf("%+v: Run(%+v, %s, %d, %d).Copy: word %d = %#x, want %#x", geom, c, o, step, n, k, got, want)
					}
				}
			case 3: // a run gathered, up to an index past its end
				r := run(m, c, o, step, n, false)
				checkCut(t, geom, c, o, step, n, r)
				idx := []int{int(in[6])}
				for k := 1; k < n; k++ {
					idx = append(idx, idx[0]+(k*int(in[5]))%(r.Len()+1))
				}
				dst = append(dst[:0], make([]uint64, len(idx))...)
				got := r.Gather(dst, idx)
				for k, j := range idx[:got] {
					if j-idx[0] >= r.Len() {
						t.Fatalf("%+v: Gather(%v) stored index %d past the run's %d words", geom, idx, j, r.Len())
					}
					if want := model[c.Along(o, (j-idx[0])*step)]; dst[k] != want {
						t.Fatalf("%+v: Run(%+v, %s, %d, %d).Gather(%v): word %d = %#x, want %#x", geom, c, o, step, n, idx, k, dst[k], want)
					}
				}
				if got < len(idx) && idx[got]-idx[0] < r.Len() {
					t.Fatalf("%+v: Gather(%v) stopped at %d inside the run", geom, idx, got)
				}
			}
		}
		for c, want := range model {
			for _, o := range []addr.Orientation{addr.Row, addr.Column} {
				if got := m.ReadCoord(c, o); got != want {
					t.Fatalf("%+v: ReadCoord(%+v, %s) = %#x, want %#x", geom, c, o, got, want)
				}
			}
		}
		if got, want := m.FootprintBytes(), footprint(geom, model); got != want {
			t.Fatalf("%+v: footprint %d bytes, want %d", geom, got, want)
		}
	})
}
