package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"partalloc/internal/obs"
)

// sealSource writes eight records to a log with 128-byte segments, which
// puts three in segment 1, three in segment 2 and two in segment 3. It
// closes the log and returns its directory, the records in append order
// and each record's position.
func sealSource(t *testing.T) (string, []Record, []Pos) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(8) {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	var pos []Pos
	for _, pr := range replayFrom(t, dir, 0) {
		recs = append(recs, pr.Rec)
		pos = append(pos, pr.Pos)
	}
	if segs, _ := segments(dir); len(segs) != 3 {
		t.Fatalf("source log has segments %v, want 3", segs)
	}
	return dir, recs, pos
}

// wholeRecords counts the records among data's whole frames, leaving out a
// segment header.
func wholeRecords(data []byte) int {
	n := 0
	for off := 0; off < len(data); {
		rec, size, err := DecodeRecord(data[off:])
		if err != nil {
			break
		}
		off += size
		if rec.Type != typeSegmentHeader {
			n++
		}
	}
	return n
}

// writeSegments writes files (segment index → contents) into a new
// directory under base.
func writeSegments(t *testing.T, base string, files map[int][]byte) string {
	t.Helper()
	dir, err := os.MkdirTemp(base, "state")
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range files {
		if err := os.WriteFile(filepath.Join(dir, segmentName(i)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkRecovers opens the crash state in dir and checks that it replays
// exactly the first n records, at the positions they were appended at,
// that an append after Open lands right behind them, and that a second
// Open finds nothing left to repair.
func checkRecovers(t *testing.T, dir string, recs []Record, pos []Pos, n int) {
	t.Helper()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := replayFrom(t, dir, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, pr := range got {
		if pr.Pos != pos[i] || !reflect.DeepEqual(pr.Rec, recs[i]) {
			t.Fatalf("record %d replayed at %v, want record %d at %v", i, pr.Pos, i, pos[i])
		}
	}
	extra := Record{Type: TypeFlush, Tenant: "after-crash"}
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	l, err = Open(dir, Options{SegmentBytes: 128, Sink: obs.NewSink(m, nil)})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if cut := m.Counter(obs.MetricWALRepairs, "").Value(); cut != 0 {
		t.Errorf("reopen repaired %d times, want 0", cut)
	}
	if got := replayAll(t, dir); !reflect.DeepEqual(got, append(append([]Record(nil), recs[:n]...), extra)) {
		t.Fatalf("after an append, replayed %d records, want the %d survivors and the new one", len(got), n)
	}
}

// TestSealCrashStates enumerates what a machine crash can leave while
// segment 2 is sealing in the background and segment 3 is open: segment 2
// cut to every length, and segment 3 absent, empty, with a torn header,
// torn mid-record, half written or whole. Open followed by Replay must
// give a prefix of the appended records, at their positions, holding
// every record a Sync could have acknowledged: every whole record in
// segment 2's surviving bytes, and segment 3's too once segment 2 has its
// full length (a Sync waits for the seal, so none acknowledged a record of
// segment 3 while segment 2 was short). The same holds when compaction
// has already removed segments 1 and 2.
func TestSealCrashStates(t *testing.T) {
	src, recs, pos := sealSource(t)
	// The states are written, not crashed into, so an fsync has nothing
	// to make durable; skipping it keeps the 800-odd states fast.
	sealHook(t, func(*os.File) error { return nil })
	read := func(i int) []byte {
		data, err := os.ReadFile(filepath.Join(src, segmentName(i)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	seg1, seg2, seg3 := read(1), read(2), read(3)
	hdr, hdrLen, err := DecodeRecord(seg3)
	if err != nil || hdr.Type != typeSegmentHeader {
		t.Fatalf("segment 3 opens with %+v (%v), want its header", hdr, err)
	}
	n1, n2 := wholeRecords(seg1), wholeRecords(seg2)
	nexts := []struct {
		name string
		data []byte // nil: absent
	}{
		{"absent", nil},
		{"empty", seg3[:0]},
		{"5B", seg3[:5]},
		{"header-torn", seg3[:hdrLen-1]},
		{"20B", seg3[:20]},
		{"half", seg3[:len(seg3)/2]},
		{"whole", seg3},
	}
	base := t.TempDir()
	states := 0
	for c := 0; c <= len(seg2); c++ {
		for _, next := range nexts {
			files := map[int][]byte{1: seg1, 2: seg2[:c]}
			want := n1 + wholeRecords(seg2[:c])
			if next.data != nil {
				files[3] = next.data
				if c == len(seg2) {
					want = n1 + n2 + wholeRecords(next.data)
				}
			}
			t.Run(fmt.Sprintf("seg2=%dB/seg3=%s", c, next.name), func(t *testing.T) {
				checkRecovers(t, writeSegments(t, base, files), recs, pos, want)
			})
			states++
		}
	}
	// Compaction removed segments 1 and 2: the header's predecessor is
	// gone, which Open must read as compacted, not as a cut-short seal.
	for _, next := range nexts[1:] {
		t.Run("compacted/seg3="+next.name, func(t *testing.T) {
			dir := writeSegments(t, base, map[int][]byte{3: next.data})
			checkRecovers(t, dir, recs[n1+n2:], pos[n1+n2:], wholeRecords(next.data))
		})
		states++
	}
	t.Logf("%d crash states", states)
}

// TestSealCorruptSealedSegmentFailsReplay flips each byte of a sealed,
// full-length segment in turn: Open must leave the corruption alone, and
// Replay must refuse it, never take it for a seal a crash cut short.
func TestSealCorruptSealedSegmentFailsReplay(t *testing.T) {
	src, _, _ := sealSource(t)
	sealHook(t, func(*os.File) error { return nil })
	var files = map[int][]byte{}
	for i := 1; i <= 3; i++ {
		data, err := os.ReadFile(filepath.Join(src, segmentName(i)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	base := t.TempDir()
	seg2 := files[2]
	for off := range seg2 {
		bad := append([]byte(nil), seg2...)
		bad[off] ^= 0xff
		files[2] = bad
		dir := writeSegments(t, base, files)
		l, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		err = Replay(dir, func(int, Record) error { return nil })
		if err == nil {
			t.Fatalf("offset %d: Replay accepted a corrupt sealed segment", off)
		}
		if off == len(seg2)-1 && !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("flipped last byte: Replay returned %v, want ErrCorruptRecord", err)
		}
	}
}

// TestSealLegacyJournal opens a journal written as builds before segment
// headers wrote it, frame by frame with AppendRecord: three segments, the
// last with a torn tail. Open must repair only that tail and add no
// header, and Replay must give every whole record at the positions it
// always had. A last segment that holds no intact frame (a crash tore the
// first record after a rotation) is dropped and its predecessor takes the
// next append; the records that replay are the ones the old repair kept.
func TestSealLegacyJournal(t *testing.T) {
	recs := testRecords(8)
	frames := func(rs []Record) []byte {
		var b []byte
		for _, r := range rs {
			b = AppendRecord(b, r)
		}
		return b
	}
	seg3 := frames(recs[6:8])
	torn := append(append([]byte(nil), seg3...), AppendRecord(nil, testRecords(9)[8])[:11]...)
	files := map[int][]byte{1: frames(recs[:3]), 2: frames(recs[3:6]), 3: torn}
	var pos []Pos
	for i := range recs {
		pos = append(pos, Pos{Seg: 1 + i/3, Idx: i % 3})
	}
	base := t.TempDir()
	dir := writeSegments(t, base, files)
	checkRecovers(t, dir, recs, pos, len(recs))
	data, err := os.ReadFile(filepath.Join(dir, segmentName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendRecord(seg3, Record{Type: TypeFlush, Tenant: "after-crash"}); string(data) != string(want) {
		t.Errorf("legacy tail segment is %x after repair and one append, want %x", data, want)
	}

	files[3] = AppendRecord(nil, recs[6])[:9]
	dir = writeSegments(t, base, files)
	checkRecovers(t, dir, recs, pos, 6)
}

// sealHook replaces the fsync hook for one test. fn sees every fsync the
// log makes, segment and directory alike.
func sealHook(t *testing.T, fn func(f *os.File) error) {
	t.Helper()
	fsync = fn
	t.Cleanup(func() { fsync = (*os.File).Sync })
}

// rotateOnce appends records to l until it rotates, and returns the
// index of the segment that is now sealing.
func rotateOnce(t *testing.T, l *Log) int {
	t.Helper()
	seg := l.Seg()
	for _, rec := range testRecords(10) {
		if err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
		if l.Seg() != seg {
			return seg
		}
	}
	t.Fatal("no rotation")
	return 0
}

// TestSealBlocked blocks a seal in the fsync hook. The append that
// rotated returns while the seal is blocked and so do later appends
// under SyncNever, but Sync and Close wait for it: each records, in the
// order of fsync calls, its own fsync only after the seal's two.
func TestSealBlocked(t *testing.T) {
	for _, barrier := range []string{"Sync", "Close"} {
		t.Run(barrier, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			sealed := l.path(l.Seg())
			entered, release := make(chan struct{}), make(chan struct{})
			var order []string // fsync calls, written only while no other runs
			sealHook(t, func(f *os.File) error {
				if f.Name() == sealed {
					close(entered)
					<-release
				}
				order = append(order, filepath.Base(f.Name()))
				return f.Sync()
			})
			if seg := rotateOnce(t, l); l.path(seg) != sealed {
				t.Fatalf("sealing segment %d, want %s", seg, sealed)
			}
			<-entered
			if err := l.Append(Record{Type: TypeFlush, Tenant: "t0"}); err != nil {
				t.Fatalf("append while the seal is blocked: %v", err)
			}
			open := filepath.Base(l.path(l.Seg()))
			returned := make(chan error)
			go func() {
				if barrier == "Sync" {
					returned <- l.Sync()
				} else {
					returned <- l.Close()
				}
			}()
			select {
			case err := <-returned:
				t.Fatalf("%s returned %v while the seal was blocked", barrier, err)
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if err := <-returned; err != nil {
				t.Fatalf("%s: %v", barrier, err)
			}
			want := []string{filepath.Base(sealed), filepath.Base(dir), open}
			if !reflect.DeepEqual(order, want) {
				t.Errorf("fsync order %v, want %v", order, want)
			}
			if barrier == "Sync" {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSealFailureSticks makes the seal fail, at the segment's fsync and
// at the directory's. The failure must fail the next Append, Sync,
// TruncateBefore and Close, and no record may be acknowledged after it:
// a reopened log replays exactly the records appended before.
func TestSealFailureSticks(t *testing.T) {
	injected := errors.New("injected fsync failure")
	for _, target := range []string{"segment", "directory"} {
		for _, next := range []string{"Append", "Sync", "TruncateBefore", "Close"} {
			t.Run(target+"/"+next, func(t *testing.T) {
				dir := t.TempDir()
				l, err := Open(dir, Options{SegmentBytes: 128})
				if err != nil {
					t.Fatal(err)
				}
				fail := l.path(l.Seg())
				if target == "directory" {
					fail = dir
				}
				sealHook(t, func(f *os.File) error {
					if f.Name() == fail {
						return injected
					}
					return f.Sync()
				})
				rotateOnce(t, l)
				acked := replayAll(t, dir)
				<-l.sealing.done // the seal has failed; the log has not looked yet
				var got error
				switch next {
				case "Append":
					got = l.Append(Record{Type: TypeFlush, Tenant: "t0"})
				case "Sync":
					got = l.Sync()
				case "TruncateBefore":
					got = l.TruncateBefore(l.Seg())
				case "Close":
					got = l.Close()
				}
				if !errors.Is(got, injected) {
					t.Fatalf("%s after a failed seal returned %v, want %v", next, got, injected)
				}
				if err := l.Append(Record{Type: TypeFlush, Tenant: "t0"}); err == nil {
					t.Fatal("an append after the failed seal was acknowledged")
				}
				if err := l.Close(); next != "Close" && !errors.Is(err, injected) {
					t.Errorf("Close returned %v, want the seal's %v", err, injected)
				}
				fsync = (*os.File).Sync
				l2, err := Open(dir, Options{SegmentBytes: 128})
				if err != nil {
					t.Fatal(err)
				}
				if err := l2.Close(); err != nil {
					t.Fatal(err)
				}
				if got := replayAll(t, dir); !reflect.DeepEqual(got, acked) {
					t.Errorf("replayed %d records, want the %d appended before the failure", len(got), len(acked))
				}
			})
		}
	}
}

// TestTruncateBeforeReportsDirectorySync fails the directory fsync that
// makes a truncation's removals durable: TruncateBefore returns it.
func TestTruncateBeforeReportsDirectorySync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rotateOnce(t, l)
	if err := l.Sync(); err != nil { // settle the seal first
		t.Fatal(err)
	}
	injected := errors.New("injected directory fsync failure")
	sealHook(t, func(f *os.File) error {
		if f.Name() == dir {
			return injected
		}
		return f.Sync()
	})
	if err := l.TruncateBefore(l.Seg()); !errors.Is(err, injected) {
		t.Fatalf("TruncateBefore returned %v, want %v", err, injected)
	}
	fsync = (*os.File).Sync
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSealFsyncsObserved counts the fsyncs Sink.WALFsync sees under
// SyncNever: the first segment's directory fsync at Open, the segment and
// directory fsyncs of each seal, and Close's.
func TestSealFsyncsObserved(t *testing.T) {
	m := obs.NewMetrics()
	l, err := Open(t.TempDir(), Options{SegmentBytes: 128, Sink: obs.NewSink(m, nil)})
	if err != nil {
		t.Fatal(err)
	}
	rotateOnce(t, l)
	rotateOnce(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Counter(obs.MetricWALFsyncs, "").Value(), int64(1+2*2+1); got != want {
		t.Errorf("%d fsyncs observed, want %d", got, want)
	}
	if got := m.Counter(obs.MetricWALRotations, "").Value(); got != 2 {
		t.Errorf("%d rotations observed, want 2", got)
	}
}

// TestSealOpenSealsPredecessor checks that Open seals the predecessor a
// header names, in the background, since a crashed process may have died
// before its seal finished, and that a segment left full is rotated with
// its own seal. Close waits for both.
func TestSealOpenSealsPredecessor(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	rotateOnce(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var synced []string
	sealHook(t, func(f *os.File) error {
		synced = append(synced, filepath.Base(f.Name()))
		return f.Sync()
	})
	if l, err = Open(dir, Options{SegmentBytes: 128}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{segmentName(1), filepath.Base(dir), segmentName(2)}; !reflect.DeepEqual(synced, want) {
		t.Errorf("Open and Close fsynced %v, want %v", synced, want)
	}

	// A tail segment at its size limit rotates at Open, sealing it.
	synced = nil
	if l, err = Open(dir, Options{SegmentBytes: 16}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{segmentName(1), filepath.Base(dir), segmentName(2), filepath.Base(dir), segmentName(3)}
	if !reflect.DeepEqual(synced, want) {
		t.Errorf("Open and Close of a full tail fsynced %v, want %v", synced, want)
	}
}

// TestAppendRefusesSegmentHeader checks that a caller cannot append the
// header type, which Replay would silently skip.
func TestAppendRefusesSegmentHeader(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Type: typeSegmentHeader}); err == nil {
		t.Fatal("appending the segment header type succeeded")
	}
}
