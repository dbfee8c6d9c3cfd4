package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"rcnvm/internal/imdb"
)

// The persistence format snapshots the catalog plus every live tuple's
// values. NVM itself is non-volatile — on real RC-NVM the data simply
// survives power-down — so Save/Load stands in for device persistence when
// the simulated memory lives in a volatile Go process: a saved database
// re-loaded into a fresh DB reproduces identical query results.
//
// On the wire a snapshot is the gob payload wrapped in a tamper-evident
// frame, so a truncated or corrupt checkpoint file is rejected up front
// instead of being partially decoded into a half-built database:
//
//	magic(8) | payload length (8, LE) | gob payload | CRC32-C(payload) (4, LE)

// snapMagic opens every snapshot ("RCNVSNP" + format byte).
var snapMagic = [8]byte{'R', 'C', 'N', 'V', 'S', 'N', 'P', 2}

// snapCRC is the snapshot checksum polynomial (Castagnoli, as the WAL).
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// maxSnapshotBytes bounds the declared payload length so a corrupt
// header cannot provoke an absurd allocation.
const maxSnapshotBytes = 1 << 33

type persistField struct {
	Name  string
	Words int
}

type persistTable struct {
	Name     string
	Fields   []persistField
	Capacity int
	// Tuples holds the values of live rows in row order; Deleted marks the
	// tombstoned row ids so row ids stay stable across a reload.
	Tuples  [][]uint64
	Deleted []int
}

type persistDB struct {
	Version int
	// Mode is 0, which gob leaves out of the payload. A retired row-only
	// engine wrote 1; Load refuses such a snapshot.
	Mode   uint8
	Tables []persistTable
}

// persistVersion guards the on-disk format (2 = framed with magic + CRC).
const persistVersion = 2

// Save writes a snapshot of the database (catalog and all tuple values).
func (db *DB) Save(w io.Writer) error {
	snap := persistDB{Version: persistVersion}
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		pt := persistTable{Name: name, Capacity: t.capacity, Tuples: make([][]uint64, t.rows)}
		for _, f := range t.Schema().Fields {
			pt.Fields = append(pt.Fields, persistField{Name: f.Name, Words: f.Words})
		}
		// One fetch reads the live tuples; the n read whole come before the
		// one that failed.
		L := t.Schema().TupleWords()
		vals, n, err := t.fetch(All, appendWords(nil, 0, L))
		i := 0
		for row := range pt.Tuples {
			if t.deleted[row] {
				pt.Deleted = append(pt.Deleted, row)
				continue
			}
			if i == n {
				return fmt.Errorf("engine: save %s row %d: %w", name, row, err)
			}
			pt.Tuples[row] = vals[i*L : (i+1)*L]
			i++
		}
		snap.Tables = append(snap.Tables, pt)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	var hdr [16]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload.Bytes(), snapCRC))
	if _, err := w.Write(crc[:]); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	return nil
}

// Load reads a snapshot into a fresh database (which must have no
// tables). The snapshot's frame is verified — bad magic, a truncated
// payload, or a CRC mismatch reject the whole file — and a snapshot of the
// retired row-only engine is refused.
func (db *DB) Load(r io.Reader) error {
	if len(db.tables) != 0 {
		return fmt.Errorf("engine: Load requires an empty database")
	}
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("engine: load: truncated snapshot header: %w", err)
	}
	if !bytes.Equal(hdr[:8], snapMagic[:]) {
		return fmt.Errorf("engine: load: bad snapshot magic %q", hdr[:8])
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	if n > maxSnapshotBytes {
		return fmt.Errorf("engine: load: implausible snapshot payload (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("engine: load: truncated snapshot payload: %w", err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return fmt.Errorf("engine: load: truncated snapshot checksum: %w", err)
	}
	if got, want := crc32.Checksum(payload, snapCRC), binary.LittleEndian.Uint32(crc[:]); got != want {
		return fmt.Errorf("engine: load: snapshot checksum mismatch (%08x != %08x)", got, want)
	}
	var snap persistDB
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return fmt.Errorf("engine: load: %w", err)
	}
	if snap.Version != persistVersion {
		return fmt.Errorf("engine: snapshot version %d, want %d", snap.Version, persistVersion)
	}
	if snap.Mode != 0 {
		return fmt.Errorf("engine: load: snapshot of the retired row-only engine (mode %d)", snap.Mode)
	}
	for _, pt := range snap.Tables {
		schema := imdb.Schema{Name: pt.Name}
		for _, f := range pt.Fields {
			schema.Fields = append(schema.Fields, imdb.Field{Name: f.Name, Words: f.Words})
		}
		t, err := db.CreateTable(pt.Name, schema, pt.Capacity)
		if err != nil {
			return err
		}
		// A tombstone is recreated as a zero tuple that is then deleted, so
		// row ids stay stable. A listed row outside the tuples is ignored.
		deleted := make([]bool, len(pt.Tuples))
		for _, row := range pt.Deleted {
			if uint(row) < uint(len(deleted)) {
				deleted[row] = true
			}
		}
		placeholder := make([]uint64, schema.TupleWords())
		for row := range pt.Tuples {
			if deleted[row] {
				pt.Tuples[row] = placeholder
			}
		}
		n, err := t.AppendRows(pt.Tuples)
		var dead []int
		for row := range n {
			if deleted[row] {
				dead = append(dead, row)
			}
		}
		if err := t.Delete(listed(dead)); err != nil {
			return err
		}
		switch {
		case err != nil && deleted[n]:
			return err
		case err != nil:
			return fmt.Errorf("engine: load %s row %d: %w", pt.Name, n, err)
		}
	}
	return nil
}
