// Record framing for the write-ahead log.
//
// Every record is stored as one frame:
//
//	uint32 LE  length of body
//	uint32 LE  CRC-32 (Castagnoli) of body
//	body       [type byte][uvarint len(tenant)][tenant bytes][payload...]
//
// The frame is the journal's unit of atomicity: a torn write leaves
// either a short header, a short body, or a body whose CRC no longer
// matches — all three decode as ErrShortRecord/ErrCorruptRecord and are
// treated by Replay as the (repairable) end of the last segment.
//
// Payload codecs for the engine's record types live here too so the
// whole wire format is fuzzed in one place (FuzzRecordRoundTrip).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"partalloc/internal/task"
)

// Type tags a journal record with the ingestion call it mirrors.
type Type uint8

// Record types. The journal logs ingestion *calls*, not abstract events,
// so recovery reproduces the engine's queue and batch structure exactly.
const (
	// TypeAddTenant is a retired type, kept reserved: a tenant's
	// registration is its genesis TypeSnapshot, and recovery rejects a
	// record of this type as unknown rather than misreading it.
	TypeAddTenant Type = 1
	// TypeSubmit carries events that entered through Engine.Submit and
	// were accepted into the tenant queue (shed events are not journaled).
	TypeSubmit Type = 2
	// TypeApply is a retired type, kept reserved: it carried one Replay
	// batch, and Replay now journals the Flush and Submit calls it is made
	// of. Recovery rejects a record of this type as unknown rather than
	// misreading it.
	TypeApply Type = 3
	// TypeFlush marks an explicit Flush of a non-empty queue.
	TypeFlush Type = 4
	// TypeRebuild marks a circuit-breaker rebuild: the tenant was rebuilt
	// from the first keep events of its valid timeline, dropping the rest.
	TypeRebuild Type = 5
	// TypeSnapshot carries a full tenant checkpoint (JSON envelope around
	// the allocator's core.Checkpointable bytes): spec, ledger, queued
	// events, and allocator state. A tenant's registration is its genesis
	// snapshot. Recovery restores the tenant's *last* snapshot and replays
	// only the records after it, and segments wholly older than every
	// tenant's last snapshot become garbage (see Log.TruncateBefore).
	TypeSnapshot Type = 6
	// TypeRemove marks a tenant's removal from this engine (MoveTenant):
	// recovery forgets the tenant and skips its earlier records.
	TypeRemove Type = 7
	// TypeMove marks an intra-engine shard move: the placement layer
	// rerouted the tenant from one shard to another. Recovery replays the
	// reroute so the routing table ends exactly where the live engine's
	// was. The record is journaled before the in-memory move
	// (append-before-apply), making the append the move's commit point: a
	// crash before it recovers the old route, after it the new one, and a
	// torn frame is repaired away at Open like any other torn tail.
	TypeMove Type = 8
)

// typeSegmentHeader is the first frame of every segment a rotation
// creates, internal to this package: Append refuses it and Replay never
// passes it on. Its tenant is empty, and its payload is
// uvarint(previous segment index) uvarint(previous segment length when
// sealed), which Open compares with the predecessor it finds on disk.
const typeSegmentHeader Type = 0xff

// Record is one journal entry.
type Record struct {
	Type   Type
	Tenant string
	Data   []byte
}

// Codec errors. ErrShortRecord means "need more bytes" (a clean torn
// tail); ErrCorruptRecord means the bytes present are inconsistent.
var (
	ErrShortRecord   = errors.New("wal: truncated record")
	ErrCorruptRecord = errors.New("wal: corrupt record")
)

// castagnoli is the CRC-32C table; Castagnoli has better error-detection
// properties than IEEE and hardware support on common CPUs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	frameHeaderLen = 8
	// maxRecordLen bounds a single record body; a corrupt length header
	// fails fast instead of asking Replay to allocate gigabytes.
	maxRecordLen = 1 << 28
)

// AppendRecord appends rec's frame to dst and returns the extended
// slice. The frame is built in place: the header is reserved in dst, the
// body appended after it, and the length and CRC written back over the
// reservation, so a dst with room for the frame takes it without
// allocating, and the payload is copied exactly once.
func AppendRecord(dst []byte, rec Record) []byte {
	start := len(dst)
	dst = slices.Grow(dst, frameHeaderLen+1+binary.MaxVarintLen64+len(rec.Tenant)+len(rec.Data))
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = append(dst, byte(rec.Type))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Tenant)))
	dst = append(dst, rec.Tenant...)
	dst = append(dst, rec.Data...)
	hdr, body := dst[start:start+frameHeaderLen], dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	return dst
}

// DecodeRecord decodes one frame from the head of buf, returning the
// record and the number of bytes consumed. ErrShortRecord means buf ends
// mid-frame; ErrCorruptRecord means the frame is internally inconsistent
// (bad length, CRC mismatch, malformed body).
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < frameHeaderLen {
		return Record{}, 0, fmt.Errorf("%w: %d header bytes", ErrShortRecord, len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:4]))
	if n < 1 || n > maxRecordLen {
		return Record{}, 0, fmt.Errorf("%w: body length %d", ErrCorruptRecord, n)
	}
	if len(buf) < frameHeaderLen+n {
		return Record{}, 0, fmt.Errorf("%w: %d of %d body bytes", ErrShortRecord, len(buf)-frameHeaderLen, n)
	}
	body := buf[frameHeaderLen : frameHeaderLen+n]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(buf[4:8]); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc %08x, frame says %08x", ErrCorruptRecord, got, want)
	}
	rec := Record{Type: Type(body[0])}
	tl, k := uvarint(body[1:])
	if k <= 0 || tl > uint64(len(body)-1-k) {
		return Record{}, 0, fmt.Errorf("%w: tenant length", ErrCorruptRecord)
	}
	off := 1 + k
	rec.Tenant = string(body[off : off+int(tl)])
	off += int(tl)
	if off < len(body) {
		rec.Data = append([]byte(nil), body[off:]...)
	}
	return rec, frameHeaderLen + n, nil
}

// uvarint decodes a uvarint from the head of data as binary.Uvarint
// does, and also reports n = 0 for a non-minimal encoding: one longer
// than its value needs, which ends in a zero byte. Every varint the
// decoders read goes through it, so each value has one encoding, the
// one binary.AppendUvarint writes, and an accepted record re-encodes to
// the bytes it was read from.
func uvarint(data []byte) (v uint64, n int) {
	v, n = binary.Uvarint(data)
	if n > 1 && data[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// AppendEvents appends the event-slice payload: uvarint count, then per
// event [kind byte][varint task ID][uvarint size][8-byte LE time bits].
func AppendEvents(dst []byte, evs []task.Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for _, e := range evs {
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendVarint(dst, int64(e.Task))
		dst = binary.AppendUvarint(dst, uint64(e.Size))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Time))
	}
	return dst
}

// DecodeEvents decodes an event-slice payload, requiring the payload to
// end exactly at the last event.
func DecodeEvents(data []byte) ([]task.Event, error) {
	evs, rest, err := decodeEvents(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptRecord, len(rest))
	}
	return evs, nil
}

func decodeEvents(data []byte) ([]task.Event, []byte, error) {
	count, k := uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("%w: event count", ErrCorruptRecord)
	}
	data = data[k:]
	// Each event takes ≥ 11 bytes; reject counts the payload cannot hold
	// before allocating for them.
	if count > uint64(len(data)/11+1) {
		return nil, nil, fmt.Errorf("%w: %d events in %d bytes", ErrCorruptRecord, count, len(data))
	}
	evs := make([]task.Event, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(data) < 1 {
			return nil, nil, fmt.Errorf("%w: event %d", ErrCorruptRecord, i)
		}
		var e task.Event
		e.Kind = task.Kind(data[0])
		if e.Kind != task.Arrive && e.Kind != task.Depart {
			return nil, nil, fmt.Errorf("%w: event kind %d", ErrCorruptRecord, data[0])
		}
		data = data[1:]
		// The task ID is a zigzag varint: its uvarint, with the sign in
		// the low bit.
		zz, k := uvarint(data)
		if k <= 0 {
			return nil, nil, fmt.Errorf("%w: event %d task ID", ErrCorruptRecord, i)
		}
		e.Task = task.ID(int64(zz>>1) ^ -int64(zz&1))
		data = data[k:]
		size, k := uvarint(data)
		if k <= 0 || size > math.MaxInt32 {
			return nil, nil, fmt.Errorf("%w: event %d size", ErrCorruptRecord, i)
		}
		e.Size = int(size)
		data = data[k:]
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("%w: event %d time", ErrCorruptRecord, i)
		}
		e.Time = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		evs = append(evs, e)
	}
	return evs, data, nil
}

// AppendMove appends a TypeMove payload: uvarint from-shard, uvarint
// to-shard. From is recorded so recovery can detect a journal whose
// routing history diverged from what it is replaying.
func AppendMove(dst []byte, from, to int) []byte {
	dst = binary.AppendUvarint(dst, uint64(from))
	return binary.AppendUvarint(dst, uint64(to))
}

// DecodeMove decodes a TypeMove payload.
func DecodeMove(data []byte) (from, to int, err error) {
	f, n := uvarint(data)
	if n <= 0 || f > math.MaxInt32 {
		return 0, 0, fmt.Errorf("%w: move from-shard", ErrCorruptRecord)
	}
	data = data[n:]
	t, n := uvarint(data)
	if n <= 0 || t > math.MaxInt32 {
		return 0, 0, fmt.Errorf("%w: move to-shard", ErrCorruptRecord)
	}
	if len(data[n:]) != 0 {
		return 0, 0, fmt.Errorf("%w: move trailing bytes", ErrCorruptRecord)
	}
	return int(f), int(t), nil
}

// segmentHeader is the header frame's record for a segment whose
// predecessor, segment prev, was sealed at prevLen bytes.
func segmentHeader(prev int, prevLen int64) Record {
	data := binary.AppendUvarint(nil, uint64(prev))
	return Record{Type: typeSegmentHeader, Data: binary.AppendUvarint(data, uint64(prevLen))}
}

// decodeSegmentHeader decodes a header frame's payload.
func decodeSegmentHeader(data []byte) (prev int, prevLen int64, err error) {
	p, n := uvarint(data)
	if n <= 0 || p > math.MaxInt32 {
		return 0, 0, fmt.Errorf("%w: segment header index", ErrCorruptRecord)
	}
	data = data[n:]
	s, n := uvarint(data)
	if n <= 0 || s > math.MaxInt64 || len(data[n:]) != 0 {
		return 0, 0, fmt.Errorf("%w: segment header length", ErrCorruptRecord)
	}
	return int(p), int64(s), nil
}

// AppendRebuild appends a TypeRebuild payload: uvarint keep, uvarint drop
// (events kept from, and dropped off, the tenant's valid timeline).
func AppendRebuild(dst []byte, keep, drop int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(keep))
	return binary.AppendUvarint(dst, uint64(drop))
}

// DecodeRebuild decodes a TypeRebuild payload.
func DecodeRebuild(data []byte) (keep, drop int64, err error) {
	k, n := uvarint(data)
	if n <= 0 || k > math.MaxInt64 {
		return 0, 0, fmt.Errorf("%w: rebuild keep", ErrCorruptRecord)
	}
	data = data[n:]
	d, n := uvarint(data)
	if n <= 0 || d > math.MaxInt64 {
		return 0, 0, fmt.Errorf("%w: rebuild drop", ErrCorruptRecord)
	}
	if len(data[n:]) != 0 {
		return 0, 0, fmt.Errorf("%w: rebuild trailing bytes", ErrCorruptRecord)
	}
	return int64(k), int64(d), nil
}
