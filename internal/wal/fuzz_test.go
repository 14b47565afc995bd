package wal

import (
	"bytes"
	"testing"

	"partalloc/internal/task"
)

// FuzzRecordRoundTrip fuzzes the frame codec from both directions,
// mirroring internal/fault's ParseText/WriteText harness:
//
//   - encode→decode: every well-formed record round-trips exactly and
//     re-encodes to the identical frame (the format is canonical);
//   - decode arbitrary bytes: DecodeRecord never panics, and anything it
//     accepts must re-encode byte-identically to the consumed prefix.
//
// The seed corpus includes truncated-tail and corrupt-CRC frames, which
// must fail cleanly (ErrShortRecord/ErrCorruptRecord), never panic.
func FuzzRecordRoundTrip(f *testing.F) {
	evs := []task.Event{
		{Kind: task.Arrive, Task: 1, Size: 4, Time: 0.5},
		{Kind: task.Depart, Task: 1, Size: 4, Time: 2},
		{Kind: task.Arrive, Task: -9, Size: 1, Time: -1.25},
	}
	whole := AppendRecord(nil, Record{Type: TypeSubmit, Tenant: "tenant-0", Data: AppendEvents(nil, evs)})
	f.Add(byte(TypeSubmit), "tenant-0", AppendEvents(nil, evs))
	f.Add(byte(TypeAddTenant), "", []byte(`{"ID":"x"}`))
	f.Add(byte(TypeRebuild), "t", AppendRebuild(nil, 12, 3))
	f.Add(byte(TypeMove), "t", AppendMove(nil, 2, 5))
	// A rebuild payload whose keep count 0 is padded to two bytes: the
	// decoders refuse non-minimal varints, or it would decode to the
	// record [0x00 0x01] encodes.
	f.Add(byte(TypeRebuild), "t", []byte{0x80, 0x00, 0x01})
	// Truncated tail: the classic crash artifact.
	f.Add(byte(0), "", whole[:len(whole)-5])
	// Corrupt CRC: same frame, payload bit flipped.
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(byte(0), "", flipped)

	f.Fuzz(func(t *testing.T, typ byte, tenant string, data []byte) {
		// Direction 1: a well-formed record round-trips canonically.
		rec := Record{Type: Type(typ), Tenant: tenant}
		if len(data) > 0 {
			rec.Data = data
		}
		frame := AppendRecord(nil, rec)
		got, n, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode of encoded record failed: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
		}
		if got.Type != rec.Type || got.Tenant != rec.Tenant || !bytes.Equal(got.Data, rec.Data) {
			t.Fatalf("round trip diverged: %+v != %+v", got, rec)
		}

		// Direction 2: arbitrary bytes never panic, and an accepted
		// frame re-encodes to exactly the bytes consumed.
		if dec, n, err := DecodeRecord(data); err == nil {
			re := AppendRecord(nil, dec)
			if !bytes.Equal(re, data[:n]) {
				t.Fatalf("accepted frame is not canonical: %x != %x", re, data[:n])
			}
		}

		// Payload codecs must also be total: no panics on junk.
		if evs, err := DecodeEvents(data); err == nil {
			if !bytes.Equal(AppendEvents(nil, evs), data) {
				t.Fatal("accepted event payload is not canonical")
			}
		}
		if keep, drop, err := DecodeRebuild(data); err == nil {
			if !bytes.Equal(AppendRebuild(nil, keep, drop), data) {
				t.Fatal("accepted rebuild payload is not canonical")
			}
		}
		if from, to, err := DecodeMove(data); err == nil {
			if !bytes.Equal(AppendMove(nil, from, to), data) {
				t.Fatal("accepted move payload is not canonical")
			}
		}
		if prev, prevLen, err := decodeSegmentHeader(data); err == nil {
			if prev < 0 || prevLen < 0 {
				t.Fatalf("segment header decoded to index %d, length %d", prev, prevLen)
			}
			if !bytes.Equal(segmentHeader(prev, prevLen).Data, data) {
				t.Fatal("accepted segment header payload is not canonical")
			}
		}
	})
}
