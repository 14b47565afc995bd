package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"partalloc/internal/task"
)

// goldenFrames pins one frame per record type, byte for byte: every live
// type, the retired TypeApply, whose payload was a flush flag byte
// before the events, and the segment header that opens each rotated
// segment. The hex was produced by AppendRecord before it learned to
// frame in place (the header's when the header was introduced), so a
// passing test means journals written by earlier builds still decode,
// and new frames are the ones those builds wrote. Never regenerate
// these: a diff here is a wire-format change.
var goldenFrames = []struct {
	name string
	rec  Record
	hex  string
}{
	{"submit", Record{Type: TypeSubmit, Tenant: "tenant-0", Data: AppendEvents(nil, goldenEvents)},
		"2d00000042a71ed2020874656e616e742d3003000204000000000000e03f01020400000000000000400011ac02000000000000f4bf"},
	{"apply", Record{Type: TypeApply, Tenant: "tenant-1", Data: append([]byte{1}, AppendEvents(nil, goldenEvents[:2])...)},
		"2200000063b803e4030874656e616e742d310102000204000000000000e03f0102040000000000000040"},
	{"flush", Record{Type: TypeFlush, Tenant: "tenant-0"},
		"0a0000004a454bdf040874656e616e742d30"},
	{"rebuild", Record{Type: TypeRebuild, Tenant: "t", Data: AppendRebuild(nil, 300, 7)},
		"0600000067c658e3050174ac0207"},
	{"snapshot", Record{Type: TypeSnapshot, Tenant: "t", Data: []byte(`{"Spec":{"ID":"t","Algorithm":"A_Rand","N":64},"Events":64,"Queue":"AA=="}`)},
		"4d000000205d69f70601747b2253706563223a7b224944223a2274222c22416c676f726974686d223a22415f52616e64222c224e223a36347d2c224576656e7473223a36342c225175657565223a2241413d3d227d"},
	{"remove", Record{Type: TypeRemove, Tenant: "mover"},
		"07000000b91b369307056d6f766572"},
	{"move", Record{Type: TypeMove, Tenant: "mover", Data: AppendMove(nil, 2, 129)},
		"0a000000611d050f08056d6f766572028101"},
	{"segment-header", segmentHeader(7, 1048571),
		"06000000d834593dff0007fbff3f"},
}

var goldenEvents = []task.Event{
	{Kind: task.Arrive, Task: 1, Size: 4, Time: 0.5},
	{Kind: task.Depart, Task: 1, Size: 4, Time: 2},
	{Kind: task.Arrive, Task: -9, Size: 300, Time: -1.25},
}

// TestRecordFrameGolden checks that AppendRecord reproduces each pinned
// frame, also when appending after bytes already in dst, and that
// DecodeRecord reads each frame back whole.
func TestRecordFrameGolden(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendRecord(nil, g.rec); !bytes.Equal(got, want) {
				t.Errorf("AppendRecord frame changed:\n  got  %x\n  want %x", got, want)
			}
			prefix := []byte("earlier frames")
			if got := AppendRecord(prefix, g.rec); !bytes.Equal(got, append([]byte("earlier frames"), want...)) {
				t.Errorf("AppendRecord after a prefix:\n  got  %x\n  want %x%x", got, prefix, want)
			}
			rec, n, err := DecodeRecord(want)
			if err != nil {
				t.Fatalf("DecodeRecord: %v", err)
			}
			if n != len(want) {
				t.Errorf("DecodeRecord consumed %d of %d bytes", n, len(want))
			}
			if !reflect.DeepEqual(rec, g.rec) {
				t.Errorf("DecodeRecord = %+v, want %+v", rec, g.rec)
			}
		})
	}
}

// TestDecodersRefuseNonMinimalVarints checks every varint the decoders
// read: each case decodes its minimal payload, and refuses as
// ErrCorruptRecord the same payload with one varint padded by a zero
// continuation byte ([0x80|low bits, 0x00] for a one-byte value), which
// binary.Uvarint alone accepts as the same value. The encoders write
// minimal varints only, so a padded one can come only from corruption,
// and accepting it would let two byte strings decode to one record.
func TestDecodersRefuseNonMinimalVarints(t *testing.T) {
	// frame wraps a record body in a valid header, so only the body's
	// varint can fail.
	frame := func(body ...byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
		return append(out, body...)
	}
	// event is one arrival of task 1 (zigzag 2), size 4, time 0, with
	// the ID and size varints as given.
	event := func(id, size []byte) []byte {
		out := append([]byte{byte(task.Arrive)}, id...)
		return append(append(out, size...), make([]byte, 8)...)
	}
	decodeRecord := func(b []byte) error { _, _, err := DecodeRecord(b); return err }
	decodeEvents := func(b []byte) error { _, err := DecodeEvents(b); return err }
	decodeMove := func(b []byte) error { _, _, err := DecodeMove(b); return err }
	decodeRebuild := func(b []byte) error { _, _, err := DecodeRebuild(b); return err }
	decodeHeader := func(b []byte) error { _, _, err := decodeSegmentHeader(b); return err }
	for _, tc := range []struct {
		name            string
		decode          func([]byte) error
		minimal, padded []byte
	}{
		{"record/tenant-length", decodeRecord,
			frame(byte(TypeFlush), 0x01, 't'), frame(byte(TypeFlush), 0x81, 0x00, 't')},
		{"events/count", decodeEvents,
			append([]byte{0x01}, event([]byte{0x02}, []byte{0x04})...),
			append([]byte{0x81, 0x00}, event([]byte{0x02}, []byte{0x04})...)},
		{"events/task-id", decodeEvents,
			append([]byte{0x01}, event([]byte{0x02}, []byte{0x04})...),
			append([]byte{0x01}, event([]byte{0x82, 0x00}, []byte{0x04})...)},
		{"events/size", decodeEvents,
			append([]byte{0x01}, event([]byte{0x02}, []byte{0x04})...),
			append([]byte{0x01}, event([]byte{0x02}, []byte{0x84, 0x00})...)},
		{"move/from", decodeMove, []byte{0x02, 0x05}, []byte{0x82, 0x00, 0x05}},
		{"move/to", decodeMove, []byte{0x02, 0x05}, []byte{0x02, 0x85, 0x00}},
		{"rebuild/keep", decodeRebuild, []byte{0x00, 0x01}, []byte{0x80, 0x00, 0x01}},
		{"rebuild/drop", decodeRebuild, []byte{0x00, 0x01}, []byte{0x00, 0x81, 0x00}},
		{"segment-header/index", decodeHeader, []byte{0x07, 0x7f}, []byte{0x87, 0x00, 0x7f}},
		{"segment-header/length", decodeHeader, []byte{0x07, 0x7f}, []byte{0x07, 0xff, 0x80, 0x00}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(tc.minimal); err != nil {
				t.Fatalf("minimal %x: %v", tc.minimal, err)
			}
			if err := tc.decode(tc.padded); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("padded %x: %v, want ErrCorruptRecord", tc.padded, err)
			}
		})
	}
}
