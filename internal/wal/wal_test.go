package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"partalloc/internal/obs"
	"partalloc/internal/task"
)

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		evs := []task.Event{
			{Kind: task.Arrive, Task: task.ID(i), Size: 1 << (i % 4), Time: float64(i)},
			{Kind: task.Depart, Task: task.ID(i), Size: 1 << (i % 4), Time: float64(i) + 0.5},
		}
		recs = append(recs, Record{Type: TypeSubmit, Tenant: "t0", Data: AppendEvents(nil, evs)})
	}
	return recs
}

func replayAll(t *testing.T, dir string) []Record {
	t.Helper()
	var got []Record
	if err := Replay(dir, func(ord int, rec Record) error {
		if ord != len(got) {
			t.Fatalf("ordinal %d at position %d", ord, len(got))
		}
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(10)
	want = append(want,
		Record{Type: TypeAddTenant, Tenant: "t1", Data: []byte(`{"ID":"t1"}`)},
		Record{Type: TypeFlush, Tenant: "t1"},
		Record{Type: TypeApply, Tenant: "t1", Data: append([]byte{1}, AppendEvents(nil, nil)...)},
		Record{Type: TypeRebuild, Tenant: "t1", Data: AppendRebuild(nil, 7, 3)},
	)
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d records != appended %d", len(got), len(want))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(20)
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) < 2 {
		t.Fatalf("got %d segments, want rotation (≥ 2)", len(idx))
	}
	if got := replayAll(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay across %d segments diverged", len(idx))
	}

	// Reopen appends to the tail segment and the history stays intact.
	l, err = Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	extra := Record{Type: TypeFlush, Tenant: "t0"}
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); !reflect.DeepEqual(got, append(want, extra)) {
		t.Fatal("reopen + append lost history")
	}
}

func TestTornTailRepairedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := testRecords(5)
	for _, rec := range want {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-frame, as a crash during write(2) would.
	path := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	// Replay without repair tolerates the torn tail (last segment only).
	if got := replayAll(t, dir); !reflect.DeepEqual(got, want[:4]) {
		t.Fatalf("torn-tail replay returned %d records, want 4", len(got))
	}

	// Open repairs: the file is truncated to its valid prefix, and a
	// fresh append lands after record 4.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) >= len(data) {
		t.Fatal("Open did not truncate the torn tail")
	}
	if err := l.Append(want[4]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); !reflect.DeepEqual(got, want) {
		t.Fatal("append after repair diverged")
	}
}

func TestCorruptMiddleSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(10) {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := segments(dir)
	if err != nil || len(idx) < 3 {
		t.Fatalf("want ≥ 3 segments, got %d (err %v)", len(idx), err)
	}
	// Flip a payload byte in a middle segment: replay must refuse.
	path := filepath.Join(dir, segmentName(idx[1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Replay(dir, func(int, Record) error { return nil })
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("corrupt middle segment: got %v, want ErrCorruptRecord", err)
	}
}

func TestReplayErrStop(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(5) {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = Replay(dir, func(ord int, _ Record) error {
		seen++
		if ord == 2 {
			return ErrStop
		}
		return nil
	})
	if err != nil || seen != 3 {
		t.Fatalf("ErrStop: err=%v seen=%d, want nil/3", err, seen)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncBatched, SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: pol, SyncEvery: 2})
			if err != nil {
				t.Fatal(err)
			}
			want := testRecords(5)
			for _, rec := range want {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := replayAll(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatal("round trip diverged")
			}
		})
	}
}

// TestFailedCutSticks covers the fallback of a failed append
// (TestFailedWriteLeavesNoTornFrame covers the cut itself): when the
// bytes a failed write left behind cannot be cut off, the error sticks,
// and no later Append writes after them, even once writes would succeed
// again. A read-only descriptor makes both the write and the cut fail.
func TestFailedCutSticks(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(3)
	if err := l.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	w := l.f
	ro, err := os.Open(w.Name())
	if err != nil {
		t.Fatal(err)
	}
	l.f = ro
	failed := l.Append(recs[1])
	l.f = w
	ro.Close()
	if failed == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	if err := l.Append(recs[2]); !errors.Is(err, failed) {
		t.Errorf("append after a failed cut returned %v, want the sticky %v", err, failed)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir); !reflect.DeepEqual(got, recs[:1]) {
		t.Errorf("replayed %d records, want only the acknowledged one", len(got))
	}
}

// TestFailedSyncCutsRecord makes the fsync an append calls for fail:
// every append under SyncAlways, and the append that completes a batch
// under SyncBatched. Append must return the error and cut the record off
// even though write(2) already put it in the segment, so the next append
// lands right after the last acknowledged record, a reopened log replays
// exactly the acknowledged records, and only those count as appends.
func TestFailedSyncCutsRecord(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncBatched} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			m := obs.NewMetrics()
			l, err := Open(dir, Options{Sync: pol, SyncEvery: 2, Sink: obs.NewSink(m, nil)})
			if err != nil {
				t.Fatal(err)
			}
			recs := testRecords(5)
			// Under SyncBatched, recs[1] syncs and recs[3] is the next
			// append that does.
			for _, rec := range recs[:3] {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			seg := filepath.Join(dir, segmentName(1))
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}

			injected := errors.New("injected fsync failure")
			fsync = func(*os.File) error { return injected }
			err = l.Append(recs[3])
			fsync = (*os.File).Sync
			if !errors.Is(err, injected) {
				t.Fatalf("append with a failing fsync returned %v, want %v", err, injected)
			}
			if after, err := os.Stat(seg); err != nil {
				t.Fatal(err)
			} else if after.Size() != before.Size() {
				t.Errorf("segment is %d bytes after the failed append, want the %d it had before", after.Size(), before.Size())
			}

			if err := l.Append(recs[4]); err != nil {
				t.Fatal(err)
			}
			if after, err := os.Stat(seg); err != nil {
				t.Fatal(err)
			} else if want := before.Size() + int64(len(AppendRecord(nil, recs[4]))); after.Size() != want {
				t.Errorf("segment is %d bytes after the next append, want %d", after.Size(), want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			acked := []Record{recs[0], recs[1], recs[2], recs[4]}
			if got := replayAll(t, dir); !reflect.DeepEqual(got, acked) {
				t.Errorf("replayed %d records, want the %d acknowledged ones", len(got), len(acked))
			}
			if got := m.Counter(obs.MetricWALAppends, "").Value(); got != int64(len(acked)) {
				t.Errorf("%d appends counted, want the %d acknowledged ones", got, len(acked))
			}
		})
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	frame := AppendRecord(nil, Record{Type: TypeSubmit, Tenant: "t", Data: []byte("xyz")})

	for cut := 0; cut < len(frame); cut++ {
		_, _, err := DecodeRecord(frame[:cut])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	// Header truncation and body truncation are "short", not "corrupt".
	if _, _, err := DecodeRecord(frame[:3]); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("short header: %v", err)
	}
	if _, _, err := DecodeRecord(frame[:len(frame)-1]); !errors.Is(err, ErrShortRecord) {
		t.Fatalf("short body: %v", err)
	}
	// A flipped payload bit is corruption.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 1
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("bad crc: %v", err)
	}
	// An absurd length header is corruption, not an allocation.
	huge := append([]byte(nil), frame...)
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeRecord(huge); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("huge length: %v", err)
	}
}

func TestEventsCodecRejectsCorruptCounts(t *testing.T) {
	// A count far beyond what the payload can hold must fail cleanly
	// instead of allocating.
	payload := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := DecodeEvents(payload); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("absurd count: %v", err)
	}
}

// posRecord is one record of a ReplayFrom scan with its position.
type posRecord struct {
	Pos Pos
	Rec Record
}

func replayFrom(t *testing.T, dir string, from int) []posRecord {
	t.Helper()
	var got []posRecord
	if err := ReplayFrom(dir, from, func(pos Pos, rec Record) error {
		got = append(got, posRecord{pos, rec})
		return nil
	}); err != nil {
		t.Fatalf("ReplayFrom(%d): %v", from, err)
	}
	return got
}

// TestTruncateBeforeCrashPoints enumerates the states a crash inside
// TruncateBefore can leave. Removal runs in ascending index order, so a
// crash after k removals leaves the log minus its first k segments. For
// every k, Open must accept the directory, and Replay must return exactly
// the records of the surviving suffix, at the positions they had before
// — the same records ReplayFrom reads from the intact log. For k below
// the segment count the state is also what TruncateBefore itself leaves;
// k equal to it (every file gone) is beyond what TruncateBefore does,
// since it never deletes the open segment, and opens as an empty log.
func TestTruncateBeforeCrashPoints(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(20) {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("got %d segments, want several", len(segs))
	}
	copyLog := func(keep []int) string {
		dir := t.TempDir()
		for _, i := range keep {
			data, err := os.ReadFile(filepath.Join(src, segmentName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segmentName(i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}

	for k := 0; k <= len(segs); k++ {
		var want []posRecord
		if k < len(segs) {
			want = replayFrom(t, src, segs[k])
			if len(want) == 0 || want[0].Pos.Seg != segs[k] {
				t.Fatalf("k=%d: ReplayFrom(%d) starts at %v", k, segs[k], want)
			}

			// The real truncation leaves exactly this state.
			dir := copyLog(segs)
			l, err := Open(dir, Options{SegmentBytes: 128})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.TruncateBefore(segs[k]); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got, _ := segments(dir); !reflect.DeepEqual(got, segs[k:]) {
				t.Fatalf("TruncateBefore(%d) left segments %v, want %v", segs[k], got, segs[k:])
			}
		}

		dir := copyLog(segs[k:])
		l, err := Open(dir, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("k=%d: Open: %v", k, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayFrom(t, dir, 0); !reflect.DeepEqual(got, want) {
			t.Errorf("k=%d: replayed %d records, want the %d of the surviving suffix", k, len(got), len(want))
		}
		var recs []Record
		for _, pr := range want {
			recs = append(recs, pr.Rec)
		}
		if got := replayAll(t, dir); !reflect.DeepEqual(got, recs) {
			t.Errorf("k=%d: Replay returned %d records, want %d", k, len(got), len(recs))
		}
	}

	// TruncateBefore never deletes the open segment.
	dir := copyLog(segs)
	l, err = Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.TruncateBefore(segs[len(segs)-1] + 10); err != nil {
		t.Fatal(err)
	}
	if got, _ := segments(dir); !reflect.DeepEqual(got, segs[len(segs)-1:]) {
		t.Errorf("TruncateBefore past the open segment left %v, want %v", got, segs[len(segs)-1:])
	}
}

// TestTruncateBeforeNoopAllocatesNothing checks that the log remembers
// its lowest live segment: after one truncation, repeating the same
// bound, or a lower one, neither reads the directory nor deletes a
// segment, so it allocates nothing.
func TestTruncateBeforeNoopAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, rec := range testRecords(20) {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("got %d segments, want several", len(segs))
	}
	bound := segs[2]
	if err := l.TruncateBefore(bound); err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{bound, bound - 1, 0} {
		if avg := testing.AllocsPerRun(100, func() {
			if err := l.TruncateBefore(b); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("TruncateBefore(%d) after TruncateBefore(%d) allocates %v times, want 0", b, bound, avg)
		}
	}
	if got, _ := segments(dir); !reflect.DeepEqual(got, segs[2:]) {
		t.Errorf("segments %v after the no-op truncations, want %v", got, segs[2:])
	}
	// A higher bound still truncates.
	if err := l.TruncateBefore(segs[3]); err != nil {
		t.Fatal(err)
	}
	if got, _ := segments(dir); !reflect.DeepEqual(got, segs[3:]) {
		t.Errorf("TruncateBefore(%d) left segments %v, want %v", segs[3], got, segs[3:])
	}
}
