package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL record framing. Every record is length-prefixed and checksummed so
// a reader can walk a segment byte-exactly and tell a cleanly-ended log
// from one torn mid-write by a crash:
//
//	length (4, LE) | CRC32-C of payload (4, LE) | payload
//
// The payload is one of two record kinds (first payload byte):
//
//	recStatement: kind(1) | flags(1) | len(uvarint) | statement source
//	recInsert:    kind(1) | len(uvarint) | table |
//	              nrows(uvarint) | { global(uvarint) | nwords(uvarint) | words... }*
//
// Statement records replay by re-parsing and re-executing the source on
// the shard's own database; insert records replay by appending the rows
// and re-registering the logged global ids (the scatter-gather merge
// keys). Values are uvarint-encoded: row ids and table values in this
// repo skew small, and the variable width keeps hot insert records short.

// Frame and payload limits.
const (
	frameHeader = 8
	// MaxRecordBytes bounds one record's payload so a corrupt length
	// prefix cannot provoke a giant allocation in the reader.
	MaxRecordBytes = 1 << 26
	// MaxFrameBytes is the largest frame DecodeFrame accepts.
	MaxFrameBytes = frameHeader + MaxRecordBytes
)

// Record kinds (first payload byte).
const (
	recStatement byte = 1
	recInsert    byte = 2
)

// Statement record flags.
const (
	flagFailed   byte = 1 << 0 // statement returned an error (may have partial effects)
	flagUnstable byte = 1 << 1 // statement rewrote the partitioning column
)

// castagnoli is the WAL checksum polynomial.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode error classes.
var (
	// ErrTorn marks an incomplete record at the end of a segment: the
	// bytes stop before the frame (or its declared payload) completes.
	// Recovery treats a torn tail of the final segment as the crash point
	// and truncates it; anywhere else it is corruption.
	ErrTorn = errors.New("durable: torn wal record")
	// ErrCorrupt marks a structurally invalid record: impossible length,
	// checksum mismatch, or an undecodable payload.
	ErrCorrupt = errors.New("durable: corrupt wal record")
)

// appendFrame frames payload onto buf.
func appendFrame(buf, payload []byte) []byte {
	var h [frameHeader]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, h[:]...)
	return append(buf, payload...)
}

// DecodeFrame splits the first framed record off b, returning its payload
// and the remaining bytes. Errors wrap ErrTorn (bytes end mid-record) or
// ErrCorrupt (impossible length or checksum mismatch).
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, fmt.Errorf("%w: %d-byte frame header", ErrTorn, len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > MaxRecordBytes {
		return nil, nil, fmt.Errorf("%w: impossible payload length %d", ErrCorrupt, n)
	}
	if uint64(len(b)-frameHeader) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTorn, len(b)-frameHeader, n)
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(b[4:8]); got != want {
		return nil, nil, fmt.Errorf("%w: checksum %08x, frame says %08x", ErrCorrupt, got, want)
	}
	return payload, b[frameHeader+int(n):], nil
}

// FrameLen is the size of the frame at the front of b as its header
// declares it, or a header's size when b is shorter than one.
func FrameLen(b []byte) int {
	if len(b) < frameHeader {
		return frameHeader
	}
	return frameHeader + int(binary.LittleEndian.Uint32(b[0:4]))
}

// ApplyFrames decodes the framed records of b in order and hands each to
// apply: the one frame loop of crash recovery and log-shipping followers.
// It returns the bytes and records consumed: all of b on a nil error, the
// whole frames before a cut tail on ErrTorn, else those before the error.
func ApplyFrames(b []byte, apply func(Record) error) (n, recs int64, err error) {
	for n < int64(len(b)) {
		payload, rest, err := DecodeFrame(b[n:])
		if err != nil {
			return n, recs, err
		}
		rec, err := DecodePayload(payload)
		if err != nil {
			return n, recs, err
		}
		if err := apply(rec); err != nil {
			return n, recs, err
		}
		n = int64(len(b) - len(rest))
		recs++
	}
	return n, recs, nil
}

// Record is one decoded WAL record.
type Record struct {
	Kind byte

	// Statement fields (Kind == recStatement).
	Src      string
	Failed   bool
	Unstable bool

	// Insert fields (Kind == recInsert).
	Table   string
	Rows    [][]uint64
	Globals []int
}

// encodeStatement appends a statement-record payload onto buf.
func encodeStatement(buf []byte, src string, failed, unstable bool) []byte {
	var flags byte
	if failed {
		flags |= flagFailed
	}
	if unstable {
		flags |= flagUnstable
	}
	buf = append(buf, recStatement, flags)
	buf = binary.AppendUvarint(buf, uint64(len(src)))
	return append(buf, src...)
}

// encodeInsert appends an insert-record payload onto buf. rows and
// globals must be the same length.
func encodeInsert(buf []byte, table string, rows [][]uint64, globals []int) []byte {
	buf = append(buf, recInsert)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for i, row := range rows {
		buf = binary.AppendUvarint(buf, uint64(globals[i]))
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		for _, v := range row {
			buf = binary.AppendUvarint(buf, v)
		}
	}
	return buf
}

// DecodePayload decodes one record payload (the bytes inside a verified
// frame). All failures wrap ErrCorrupt: by the time a payload checksums
// correctly, undecodable contents mean a format bug or tampering, never a
// torn write.
func DecodePayload(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	switch p[0] {
	case recStatement:
		if len(p) < 2 {
			return Record{}, fmt.Errorf("%w: statement record without flags", ErrCorrupt)
		}
		rec := Record{Kind: recStatement, Failed: p[1]&flagFailed != 0, Unstable: p[1]&flagUnstable != 0}
		if p[1]&^(flagFailed|flagUnstable) != 0 {
			return Record{}, fmt.Errorf("%w: unknown statement flags %#02x", ErrCorrupt, p[1])
		}
		src, rest, err := decodeString(p[2:])
		if err != nil {
			return Record{}, err
		}
		if len(rest) != 0 {
			return Record{}, fmt.Errorf("%w: %d trailing bytes after statement", ErrCorrupt, len(rest))
		}
		rec.Src = src
		return rec, nil
	case recInsert:
		rec := Record{Kind: recInsert}
		table, rest, err := decodeString(p[1:])
		if err != nil {
			return Record{}, err
		}
		rec.Table = table
		n, rest, err := decodeUvarint(rest)
		if err != nil {
			return Record{}, err
		}
		// Each row costs at least two bytes (global id + word count), so a
		// count beyond the remaining payload is corruption, not a loop.
		if n > uint64(len(rest)) {
			return Record{}, fmt.Errorf("%w: %d rows in %d payload bytes", ErrCorrupt, n, len(rest))
		}
		for i := uint64(0); i < n; i++ {
			var g, words uint64
			if g, rest, err = decodeUvarint(rest); err != nil {
				return Record{}, err
			}
			if words, rest, err = decodeUvarint(rest); err != nil {
				return Record{}, err
			}
			if words > uint64(len(rest))+1 {
				return Record{}, fmt.Errorf("%w: %d-word row in %d payload bytes", ErrCorrupt, words, len(rest))
			}
			row := make([]uint64, words)
			for w := range row {
				if row[w], rest, err = decodeUvarint(rest); err != nil {
					return Record{}, err
				}
			}
			rec.Rows = append(rec.Rows, row)
			rec.Globals = append(rec.Globals, int(g))
		}
		if len(rest) != 0 {
			return Record{}, fmt.Errorf("%w: %d trailing bytes after insert rows", ErrCorrupt, len(rest))
		}
		return rec, nil
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrCorrupt, p[0])
	}
}

func decodeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", ErrCorrupt)
	}
	return v, b[n:], nil
}

func decodeString(b []byte) (string, []byte, error) {
	n, rest, err := decodeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(rest)) {
		return "", nil, fmt.Errorf("%w: %d-byte string in %d payload bytes", ErrCorrupt, n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}
