package wal

import (
	"bytes"
	"encoding/hex"
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
