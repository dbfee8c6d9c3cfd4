package engine

import (
	"bytes"
	"testing"
)

// FuzzLoad mutates a snapshot's gob payload and frames it with a valid CRC,
// so what it reaches is decoding and catalog building — the part of Load a
// checkpoint file or a /wal/checkpoint body drives once its frame checks
// out. Load must never panic, and a snapshot that loads must re-save to
// bytes that load again and re-save to the same bytes.
func FuzzLoad(f *testing.F) {
	var saved bytes.Buffer
	if err := pinnedHistory(f).Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes()[16 : saved.Len()-4])
	for _, snap := range zeroWidthSnaps() {
		f.Add(payloadOf(f, snap))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		if db.Load(bytes.NewReader(framed(payload))) != nil {
			return
		}
		var first, second bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatalf("loaded snapshot does not save: %v", err)
		}
		again, _ := Open()
		if err := again.Load(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("re-saved snapshot does not load: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, load, save changed the snapshot: %d bytes, then %d", first.Len(), second.Len())
		}
	})
}
