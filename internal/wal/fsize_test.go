//go:build linux

package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// TestFailedWriteLeavesNoTornFrame makes one append fail partway through
// its write(2): a lowered RLIMIT_FSIZE lets 10 bytes of the frame reach
// the file before the kernel refuses the rest with EFBIG. Append must
// cut those bytes off again, so the next append lands right after the
// last good frame: every record whose Append returned nil replays, in
// order, and reopening finds nothing to repair. (No wal test runs in
// parallel, so lowering the process-wide limit is safe here.)
func TestFailedWriteLeavesNoTornFrame(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatalf("restore RLIMIT_FSIZE: %v", err)
		}
	}
	t.Cleanup(restore)

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(4)
	var acked []Record
	appendOK := func(rec Record) {
		t.Helper()
		if err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
		acked = append(acked, rec)
	}
	appendOK(recs[0])

	seg := filepath.Join(dir, segmentName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	const torn = 10
	if lim.Cur < uint64(fi.Size())+torn {
		t.Skipf("RLIMIT_FSIZE %d is already below the test's file size", lim.Cur)
	}
	low := lim
	low.Cur = uint64(fi.Size()) + torn
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	if err := l.Append(recs[1]); err == nil {
		t.Fatal("append past RLIMIT_FSIZE succeeded")
	}
	restore()

	if after, err := os.Stat(seg); err != nil {
		t.Fatal(err)
	} else if after.Size() != fi.Size() {
		t.Errorf("segment is %d bytes after the failed append, want the %d it had before", after.Size(), fi.Size())
	}
	appendOK(recs[2])
	appendOK(recs[3])
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if got := replayAll(t, dir); !reflect.DeepEqual(got, acked) {
		t.Errorf("replayed %d records, want the %d acknowledged ones:\n  got  %+v\n  want %+v", len(got), len(acked), got, acked)
	}
	closed, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if reopened, err := os.Stat(seg); err != nil {
		t.Fatal(err)
	} else if cut := closed.Size() - reopened.Size(); cut != 0 {
		t.Errorf("reopen repaired %d bytes, want 0", cut)
	}
}
