package durable

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeRecord drives DecodeFrame + DecodePayload with arbitrary
// bytes. The decoder guards the recovery path, so the contract is
// strict: never panic, never allocate proportionally to a length field
// that the input cannot back, and classify every failure as either
// ErrTorn (a prefix of a valid frame) or ErrCorrupt (anything else).
func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendFrame(nil, encodeStatement(nil, "CREATE TABLE kv (k, val)", false, false)))
	f.Add(appendFrame(nil, encodeStatement(nil, "UPDATE kv SET k = 2 WHERE k = 1", true, true)))
	f.Add(appendFrame(nil, encodeInsert(nil, "kv", [][]uint64{{1, 2}, {3, 4}}, []int{0, 1})))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, rest, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeFrame: unclassified error %v", err)
			}
			return
		}
		if len(payload)+len(rest)+frameHeader != len(data) {
			t.Fatalf("DecodeFrame split %d bytes into %d payload + %d rest",
				len(data), len(payload), len(rest))
		}
		rec, err := DecodePayload(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodePayload: unclassified error %v", err)
			}
			return
		}
		// A decoded insert must be internally consistent; recovery
		// indexes Globals by row.
		if rec.Kind == recInsert && len(rec.Rows) != len(rec.Globals) {
			t.Fatalf("insert decoded with %d rows but %d globals", len(rec.Rows), len(rec.Globals))
		}
		// Whatever decodes must survive a re-encode/re-decode trip with
		// identical meaning. (Byte equality is too strong: the varint
		// reader tolerates non-minimal encodings.)
		var again []byte
		switch rec.Kind {
		case recStatement:
			again = encodeStatement(nil, rec.Src, rec.Failed, rec.Unstable)
		case recInsert:
			again = encodeInsert(nil, rec.Table, rec.Rows, rec.Globals)
		default:
			t.Fatalf("decoded unknown kind %d", rec.Kind)
		}
		rec2, err := DecodePayload(again)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("re-encode changed meaning:\n got %+v\nwant %+v", rec2, rec)
		}
	})
}

// FuzzApplyFrames drives ApplyFrames, the frame loop recovery and
// followers share, with arbitrary bytes. It must never panic; a nil error
// consumes every byte; a torn stop consumes a prefix that re-walks to the
// same records; and apply sees exactly the records counted, the one it
// fails on excluded.
func FuzzApplyFrames(f *testing.F) {
	valid := appendFrame(nil, encodeStatement(nil, "CREATE TABLE kv (k, val)", false, false))
	valid = appendFrame(valid, encodeInsert(nil, "kv", [][]uint64{{1, 2}, {3, 4}}, []int{0, 1}))
	valid = appendFrame(valid, encodeStatement(nil, "UPDATE kv SET k = 2 WHERE k = 1", true, true))
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // cut tail
	badCRC := bytes.Clone(valid)
	badCRC[4] ^= 0xff // the first frame's checksum
	f.Add(badCRC)
	f.Add([]byte{})

	errStop := errors.New("apply refused")
	// walk applies b's frames, failing apply on record number stop (never
	// when stop < 0), and returns what ApplyFrames returned and apply saw.
	walk := func(b []byte, stop int) (n, recs int64, seen []Record, err error) {
		n, recs, err = ApplyFrames(b, func(rec Record) error {
			if len(seen) == stop {
				return errStop
			}
			seen = append(seen, rec)
			return nil
		})
		return n, recs, seen, err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, recs, seen, err := walk(data, -1)
		if recs != int64(len(seen)) {
			t.Fatalf("counted %d records, apply saw %d", recs, len(seen))
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		switch {
		case err == nil:
			if n != int64(len(data)) {
				t.Fatalf("nil error after consuming %d of %d bytes", n, len(data))
			}
		case errors.Is(err, ErrTorn):
			n2, recs2, seen2, err2 := walk(data[:n], -1)
			if err2 != nil || n2 != n || recs2 != recs || !reflect.DeepEqual(seen2, seen) {
				t.Fatalf("torn prefix of %d bytes re-walks to %d bytes, %d records, %v; want %d records, nil",
					n, n2, recs2, err2, recs)
			}
		case !errors.Is(err, ErrCorrupt):
			t.Fatalf("unclassified error %v", err)
		}
		if recs == 0 {
			return
		}
		// Refusing the last record stops the walk before it: it is not
		// counted, and the walk ends where that record starts.
		n3, recs3, seen3, err3 := walk(data, int(recs-1))
		if !errors.Is(err3, errStop) || recs3 != recs-1 || int64(len(seen3)) != recs3 || n3 >= n {
			t.Fatalf("apply refusing record %d: %d bytes, %d records (saw %d), %v",
				recs-1, n3, recs3, len(seen3), err3)
		}
	})
}
