// Package wal is a segmented write-ahead log for the allocation engine.
//
// The engine appends a record describing each ingestion call *before*
// mutating tenant state (append-before-apply), so a process killed at
// any instant can reconstruct every tenant by replaying the log: the
// journal is the source of truth, the in-memory allocators a cache.
//
// Layout: dir/00000001.wal, 00000002.wal, ... Each segment is a
// concatenation of CRC-framed records (record.go). Appends go through a
// single unbuffered write(2) per record: data reaches the kernel page
// cache immediately, which is what survives SIGKILL (a crashed *machine*
// additionally needs SyncAlways or SyncBatched). Each frame is built in
// place in one buffer the log reuses (AppendRecord), so an append copies
// the payload once and, once warm, allocates nothing.
//
// Rotation leaves the append path. When the open segment reaches
// SegmentBytes, Append creates the next segment, writes a header frame
// into it that records the old segment's index and length, and hands the
// old segment to a background seal: fsync, close, then fsync the
// directory. At most one seal runs, because a rotation first waits for
// the previous one, so only the segment just before the open one can be
// unsealed. Sync and Close wait for a pending seal before their own
// fsync, so a record that Sync acknowledges has every earlier segment
// durable behind it. A failed seal sticks: the next Append, Sync,
// TruncateBefore or Close returns it.
//
// A crash leaves a prefix of the appended records that holds every record
// a Sync acknowledged. It can tear the last segment mid-frame and, when
// it cuts a seal short, also the segment before it. Open repairs both,
// reading the last segment's header to tell a cut-short seal from
// corruption:
//
//   - the last segment has no intact first frame (it is empty, or its
//     header is torn): it holds no records, so Open removes it and
//     repairs its predecessor instead;
//   - the header names a predecessor shorter than the length it records:
//     the seal was cut short, and no Sync acknowledged a record after it.
//     Open cuts the predecessor at its last whole frame, removes the last
//     segment and reopens the predecessor;
//   - otherwise (the predecessor has its full length or compaction
//     removed it, or the segment has no header because an earlier build
//     wrote it) Open truncates the last segment at its first invalid
//     frame. It seals an existing predecessor again in the background,
//     since a crashed process may have died before its seal finished.
//
// Replay independently tolerates a torn tail, but only in the last
// segment: after Open, an earlier segment ending mid-frame is real
// corruption, not a crash. A failed append leaves nothing behind: when
// the write fails, Append cuts off whatever part of the frame reached the
// file, and when the fsync its policy calls for fails, it cuts off the
// whole record, so a record whose Append returned an error never
// replays. If that cut fails, it fails every later append too, so no
// record is ever written after torn bytes.
package wal

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"partalloc/internal/obs"
)

// SyncPolicy selects when Append calls fsync(2). Under every policy a
// crash leaves a prefix of the appended records (see the package doc),
// and Append itself fsyncs only what its policy asks for: sealing a full
// segment runs in the background.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the kernel, the background seals and
	// Close: Append issues no fsync. A process crash (SIGKILL) loses no
	// acknowledged record; a machine crash can lose a suffix of them. The
	// default.
	SyncNever SyncPolicy = iota
	// SyncBatched fsyncs every Options.SyncEvery appends, so a machine
	// crash loses at most the records since the last fsync.
	SyncBatched
	// SyncAlways fsyncs after every append: Append returns once its record
	// and every segment before it are durable. Full durability, slowest.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncBatched:
		return "batched"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options parameterize a Log. The zero value selects the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold (default 4 MiB). A record
	// never spans segments; a segment holds at least one record even when
	// the record alone exceeds the threshold.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncNever).
	Sync SyncPolicy
	// SyncEvery is the SyncBatched interval in appends (default 64).
	SyncEvery int
	// Sink receives append/fsync latency, rotation, and torn-tail repair
	// metrics. nil (the default) records nothing and costs nothing.
	Sink *obs.Sink
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	return o
}

// Log is an append-only segmented journal. Its methods are for one
// goroutine at a time: the engine holds one engine-wide lock (jmu) around
// every call. The only goroutine the log starts itself is a segment's
// background seal, which touches nothing but the sealed file, the
// directory and its own result.
type Log struct {
	dir       string
	opt       Options
	f         *os.File
	seg       int   // index of the open segment
	low       int   // lowest live segment; segments low..seg all exist
	size      int64 // bytes of the open segment up to its last acknowledged record
	head      int64 // bytes of the open segment's header frame, 0 if it has none
	sinceSync int
	buf       []byte // frame scratch, reused across appends
	closed    bool
	// sealing is the background seal of the segment before the open one,
	// nil once it has succeeded. A failed seal stays, so Close can still
	// return its error.
	sealing *seal
	// err is a failed seal, or a failed append whose torn bytes could not
	// be cut off. It fails every later Append, Sync and TruncateBefore.
	err error
}

// A seal makes a finished segment durable off the append path. err is
// set before done closes.
type seal struct {
	done chan struct{}
	err  error
}

// fsync is the call every fsync of a segment or of the directory goes
// through; tests replace it to make fsync fail or block.
var fsync = (*os.File).Sync

// ErrStop is returned by a Replay callback to end the scan early with a
// nil error from Replay.
var ErrStop = errors.New("wal: stop replay")

func segmentName(i int) string { return fmt.Sprintf("%08d.wal", i) }

func (l *Log) path(i int) string { return filepath.Join(l.dir, segmentName(i)) }

// segments lists dir's segment files in index order.
func segments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idx []int
	for _, ent := range ents {
		var i int
		if _, err := fmt.Sscanf(ent.Name(), "%08d.wal", &i); err == nil && segmentName(i) == ent.Name() {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

// createSegment creates segment file path for appending. Like a reopened
// segment, it is written in append mode, so cutting a torn frame off
// (Append) also moves the next write back to the cut.
func createSegment(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
}

// syncFile fsyncs f through hook and reports the latency to sink.
func syncFile(hook func(*os.File) error, f *os.File, sink *obs.Sink) error {
	start := sink.Now()
	if err := hook(f); err != nil {
		return err
	}
	sink.WALFsync(sink.Now() - start)
	return nil
}

// syncDir fsyncs directory dir, making the segment names in it durable.
func syncDir(hook func(*os.File) error, dir string, sink *obs.Sink) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	err = syncFile(hook, d, sink)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: sync directory: %w", err)
	}
	return nil
}

// sealFile makes a finished segment durable: fsync f, close it, then
// fsync the directory, which makes the name of the segment after it
// durable too.
func sealFile(hook func(*os.File) error, f *os.File, dir string, sink *obs.Sink) error {
	err := syncFile(hook, f, sink)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = syncDir(hook, dir, sink)
	}
	if err != nil {
		return fmt.Errorf("wal: seal %s: %w", filepath.Base(f.Name()), err)
	}
	return nil
}

// Open opens (creating if needed) the journal in dir and repairs what a
// crash left, as the package doc sets out: a torn tail in the last
// segment, and a seal the crash cut short in the segment before it.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	idx, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opt: opt, low: 1}
	if len(idx) == 0 {
		// The first segment has no predecessor to seal, so its name is
		// made durable here.
		f, err := createSegment(l.path(1))
		if err != nil {
			return nil, fmt.Errorf("wal: open: %w", err)
		}
		if err := syncDir(fsync, dir, opt.Sink); err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.seg = f, 1
		opt.Sink.WALOpen()
		return l, nil
	}
	l.low = idx[0]
	if err := l.openTail(idx[len(idx)-1]); err != nil {
		_ = l.settle(true) // wait for a seal openTail started; err says what failed
		return nil, err
	}
	if l.size > l.head && l.size >= opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			l.f.Close()
			return nil, err
		}
	}
	opt.Sink.WALOpen()
	return l, nil
}

// openTail makes segment last, or its predecessor when the package doc's
// rules drop last, the open segment: it truncates that segment at its
// first invalid frame and opens it for appending.
func (l *Log) openTail(last int) error {
	data, err := os.ReadFile(l.path(last))
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	first, _, ferr := DecodeRecord(data)
	drop := ferr != nil && last > l.low // no intact first frame, so no records
	if ferr == nil && first.Type == typeSegmentHeader {
		prev, prevLen, err := decodeSegmentHeader(first.Data)
		if err == nil && prev != last-1 {
			err = fmt.Errorf("%w: header names segment %d", ErrCorruptRecord, prev)
		}
		if err != nil {
			return fmt.Errorf("wal: open: segment %s: %w", segmentName(last), err)
		}
		fi, err := os.Stat(l.path(prev))
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Compaction removed the predecessor: nothing to seal.
		case err != nil:
			return fmt.Errorf("wal: open: %w", err)
		case fi.Size() < prevLen:
			drop = true // the crash cut the predecessor's seal short
		default:
			// A crashed process may have died before its seal finished.
			f, err := os.Open(l.path(prev))
			if err != nil {
				return fmt.Errorf("wal: open: %w", err)
			}
			l.startSeal(f)
		}
	}
	var cut int64
	if drop {
		// The removal is made durable before the predecessor takes
		// appends: were it lost, a later crash could bring the dropped
		// records back behind the new ones.
		if err := os.Remove(l.path(last)); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
		if err := syncDir(fsync, l.dir, l.opt.Sink); err != nil {
			return err
		}
		cut, last = int64(len(data)), last-1
		if data, err = os.ReadFile(l.path(last)); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
	}
	valid := validPrefix(data)
	if valid < int64(len(data)) {
		if err := os.Truncate(l.path(last), valid); err != nil {
			return fmt.Errorf("wal: repair: %w", err)
		}
		cut += int64(len(data)) - valid
	}
	if cut > 0 {
		l.opt.Sink.WALRepair(cut)
	}
	f, err := os.OpenFile(l.path(last), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open: %w", err)
	}
	l.f, l.seg, l.size = f, last, valid
	if rec, n, err := DecodeRecord(data[:valid]); err == nil && rec.Type == typeSegmentHeader {
		l.head = int64(n)
	}
	return nil
}

// validPrefix returns the length of data's longest prefix of whole,
// valid frames.
func validPrefix(data []byte) int64 {
	off := 0
	for off < len(data) {
		_, n, err := DecodeRecord(data[off:])
		if err != nil {
			break
		}
		off += n
	}
	return int64(off)
}

// Append frames rec in place in the log's reused buffer and writes it
// with a single write(2) call, rotating segments at the SegmentBytes
// threshold first. The record is in the kernel page cache when Append
// returns; fsync follows Options.Sync.
//
// A failed append leaves no bytes behind. Whatever part of the frame
// reached the file is cut off again when the write fails, and the whole
// record when the fsync that Options.Sync calls for fails, so the segment
// ends where it did before the call, and the next append lands right
// after the previous record. If that cut fails too, the error sticks, and
// every later Append returns it rather than write after a torn frame.
func (l *Log) Append(rec Record) error {
	if l.closed {
		return errors.New("wal: append on closed log")
	}
	if rec.Type == typeSegmentHeader {
		return fmt.Errorf("wal: append: record type %d is reserved", rec.Type)
	}
	if err := l.settle(false); err != nil {
		return err
	}
	l.buf = AppendRecord(l.buf[:0], rec)
	if l.size > l.head && l.size+int64(len(l.buf)) > l.opt.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	start := l.opt.Sink.Now()
	if _, err := l.f.Write(l.buf); err != nil {
		return l.cut(fmt.Errorf("wal: append: %w", err))
	}
	writeNs := l.opt.Sink.Now() - start
	switch {
	case l.opt.Sync == SyncAlways || l.opt.Sync == SyncBatched && l.sinceSync+1 >= l.opt.SyncEvery:
		if err := l.Sync(); err != nil {
			return l.cut(err)
		}
	case l.opt.Sync == SyncBatched:
		l.sinceSync++
	}
	l.opt.Sink.WALAppend(len(l.buf), writeNs)
	l.size += int64(len(l.buf))
	return nil
}

// cut truncates the open segment back to l.size, the end of its last
// acknowledged record, and returns err, the failure that ended the
// append. If the truncation fails, the error sticks in l.err.
func (l *Log) cut(err error) error {
	if cerr := l.f.Truncate(l.size); cerr != nil {
		l.err = fmt.Errorf("%w; cutting the segment back to %d bytes failed: %w", err, l.size, cerr)
		return l.err
	}
	return err
}

// rotate makes the next segment the open one. It waits for the previous
// seal, creates the segment, writes its header frame (the old segment's
// index and length, for Open) and starts the old segment's seal, which
// is the only work that leaves the caller.
func (l *Log) rotate() error {
	if err := l.settle(true); err != nil {
		return err
	}
	next := l.path(l.seg + 1)
	f, err := createSegment(next)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	hdr := AppendRecord(nil, segmentHeader(l.seg, l.size))
	if _, err := f.Write(hdr); err != nil {
		// Remove the new segment so the next rotation can create it again.
		f.Close()
		os.Remove(next)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.startSeal(l.f)
	l.f, l.seg, l.size, l.head = f, l.seg+1, int64(len(hdr)), int64(len(hdr))
	l.opt.Sink.WALRotate(int64(l.seg))
	return nil
}

// startSeal seals f in a new goroutine, which touches only f, the
// directory and the seal's own fields. Sync, Close and the next rotation
// wait for it.
func (l *Log) startSeal(f *os.File) {
	s := &seal{done: make(chan struct{})}
	hook, dir, sink := fsync, l.dir, l.opt.Sink
	go func() {
		defer close(s.done)
		s.err = sealFile(hook, f, dir, sink)
	}()
	l.sealing = s
}

// settle collects the pending seal: it waits for it if wait is set, and
// otherwise collects it only if it has finished. A seal that succeeded is
// forgotten; one that failed sticks in l.err. It returns l.err.
func (l *Log) settle(wait bool) error {
	s := l.sealing
	if s == nil {
		return l.err
	}
	if wait {
		<-s.done
	} else {
		select {
		case <-s.done:
		default:
			return l.err
		}
	}
	if s.err == nil {
		l.sealing = nil
	} else if l.err == nil {
		l.err = s.err
	}
	return l.err
}

// Sync waits for a pending seal, then fsyncs the open segment, so every
// record appended so far is durable when it returns nil. Under
// SyncBatched the next batch counts from a successful Sync, so after a
// failed one the next append syncs again.
func (l *Log) Sync() error {
	if err := l.settle(true); err != nil {
		return err
	}
	if err := syncFile(fsync, l.f, l.opt.Sink); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.sinceSync = 0
	return nil
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Seg returns the index of the open segment — i.e. the segment the next
// (and the just-appended) record lands in, since Append rotates *before*
// writing. The engine captures this alongside each snapshot append to
// learn which segments the snapshot makes redundant.
func (l *Log) Seg() int { return l.seg }

// TruncateBefore deletes every sealed segment with index < seg. This is
// the snapshot-retention rule: once every tenant's latest durable
// snapshot lives in segment ≥ seg, all older segments contain only
// history the snapshots already summarize.
//
// Segments are removed by index, from the lowest live one up: rotation
// and ascending removal keep the live segments contiguous, so no listing
// of the directory is needed, and a crash mid-truncation leaves a
// contiguous suffix of segments — still a valid log, just less compacted.
// A segment already gone counts as removed. The directory is fsynced
// afterwards, so the removals are durable when it returns nil. The open
// segment is never deleted, and the segment still sealing may be: its
// fsync does not need the name. A bound at or below the lowest live
// segment returns at once: after the first truncation, a compaction with
// nothing to delete costs nothing.
func (l *Log) TruncateBefore(seg int) error {
	if l.closed {
		return errors.New("wal: truncate on closed log")
	}
	if err := l.settle(false); err != nil {
		return err
	}
	if seg > l.seg {
		seg = l.seg
	}
	removed := 0
	for ; l.low < seg; l.low++ {
		err := os.Remove(l.path(l.low))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		removed++
	}
	if removed == 0 {
		return nil
	}
	l.opt.Sink.WALTruncate(int64(removed))
	if err := syncDir(fsync, l.dir, l.opt.Sink); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	return nil
}

// Close waits for a pending seal, then syncs and closes the open segment.
// It returns a failed seal's error before its own. The log cannot be
// reused.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	_ = l.settle(true) // a failed seal is returned below; l.err fails no Close
	err := syncFile(fsync, l.f, l.opt.Sink)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		err = fmt.Errorf("wal: close: %w", err)
	}
	if l.sealing != nil {
		return errors.Join(l.sealing.err, err)
	}
	return err
}

// Pos locates a record by the segment it lives in and its index among
// that segment's records. Compaction deletes whole segments and never
// renumbers the survivors, so a Pos names the same record for as long as
// its segment exists — unlike a Replay ordinal, which restarts at the
// first surviving segment.
type Pos struct {
	Seg, Idx int
}

// Before reports whether p precedes q in append order.
func (p Pos) Before(q Pos) bool {
	return p.Seg < q.Seg || p.Seg == q.Seg && p.Idx < q.Idx
}

func (p Pos) String() string { return fmt.Sprintf("%s#%d", segmentName(p.Seg), p.Idx) }

// Replay scans every record in dir in append order, calling fn with the
// record's ordinal (0-based across the surviving segments) and the
// record. It is ReplayFrom over the whole log.
func Replay(dir string, fn func(ord int, rec Record) error) error {
	ord := 0
	return ReplayFrom(dir, 0, func(_ Pos, rec Record) error {
		err := fn(ord, rec)
		ord++
		return err
	})
}

// ReplayFrom scans the records of every segment with index ≥ from in
// append order, calling fn with each record's Pos; earlier segments are
// not opened. A torn tail is tolerated — the scan ends cleanly — but
// only in the last segment; anywhere else it is corruption and an error.
// fn may return ErrStop to end the scan early without error.
func ReplayFrom(dir string, from int, fn func(pos Pos, rec Record) error) error {
	idx, err := segments(dir)
	if err != nil {
		return fmt.Errorf("wal: replay: %w", err)
	}
	for i, seg := range idx {
		if seg < from {
			continue
		}
		last := i == len(idx)-1
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seg)))
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		for off, n := 0, 0; off < len(data); {
			rec, size, err := DecodeRecord(data[off:])
			if err != nil {
				if last {
					return nil // torn tail from a crash; Open would repair it
				}
				return fmt.Errorf("wal: replay: segment %s offset %d: %w", segmentName(seg), off, err)
			}
			off += size
			if rec.Type == typeSegmentHeader {
				continue // the segment's header, not a record
			}
			if err := fn(Pos{Seg: seg, Idx: n}, rec); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
			n++
		}
	}
	return nil
}
