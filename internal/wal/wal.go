// Package wal is a segmented write-ahead log for the allocation engine.
//
// The engine appends a record describing each ingestion call *before*
// mutating tenant state (append-before-apply), so a process killed at
// any instant can reconstruct every tenant by replaying the log: the
// journal is the source of truth, the in-memory allocators a cache.
//
// Layout: dir/00000001.wal, 00000002.wal, ... Each segment is a
// concatenation of CRC-framed records (record.go); a segment is sealed
// when it reaches SegmentBytes and a new one is created with an
// fsync-of-directory barrier, so rotation is atomic. Appends go through
// a single unbuffered write(2) per record: data reaches the kernel page
// cache immediately, which is what survives SIGKILL (a crashed *machine*
// additionally needs SyncAlways or SyncBatched). Each frame is built in
// place in one buffer the log reuses (AppendRecord), so an append copies
// the payload once and, once warm, allocates nothing.
//
// A crash can tear the tail of the last segment mid-frame. Open repairs
// this by scanning the last segment and truncating at the first invalid
// frame; Replay independently tolerates a torn tail — but only in the
// last segment, since an earlier segment ending mid-frame means real
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
	"os"
	"path/filepath"
	"sort"

	"partalloc/internal/obs"
)

// SyncPolicy selects when Append calls fsync(2).
type SyncPolicy int

const (
	// SyncNever leaves flushing to the kernel (and Close). Survives
	// process crashes (SIGKILL) but not machine crashes. The default.
	SyncNever SyncPolicy = iota
	// SyncBatched fsyncs every Options.SyncEvery appends.
	SyncBatched
	// SyncAlways fsyncs after every append — full durability, slowest.
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

// Log is an append-only segmented journal. Methods are safe for use by
// one goroutine at a time; the engine serializes appends per shard and
// adds its own lock around the log.
type Log struct {
	dir       string
	opt       Options
	f         *os.File
	seg       int   // index of the open segment
	size      int64 // bytes of acknowledged records in the open segment
	sinceSync int
	buf       []byte // frame scratch, reused across appends
	closed    bool
	// err is a failed append whose torn bytes could not be cut off; it
	// fails every later Append.
	err error
}

// fsync is the call Sync makes; tests replace it to make fsync fail.
var fsync = (*os.File).Sync

// ErrStop is returned by a Replay callback to end the scan early with a
// nil error from Replay.
var ErrStop = errors.New("wal: stop replay")

func segmentName(i int) string { return fmt.Sprintf("%08d.wal", i) }

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

// Open opens (creating if needed) the journal in dir and repairs a torn
// tail left by a crash: the last segment is scanned frame by frame and
// truncated at the first invalid one.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	idx, err := segments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opt: opt}
	if len(idx) == 0 {
		if err := l.create(1); err != nil {
			return nil, err
		}
		opt.Sink.WALOpen()
		return l, nil
	}
	last := idx[len(idx)-1]
	valid, truncated, err := repair(filepath.Join(dir, segmentName(last)))
	if err != nil {
		return nil, err
	}
	if truncated > 0 {
		opt.Sink.WALRepair(truncated)
	}
	if valid >= opt.SegmentBytes {
		if err := l.create(last + 1); err != nil {
			return nil, err
		}
		opt.Sink.WALOpen()
		return l, nil
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l.f, l.seg, l.size = f, last, valid
	opt.Sink.WALOpen()
	return l, nil
}

// repair truncates path at the first invalid frame and returns the valid
// length plus the number of bytes cut. A fully valid segment is left
// untouched.
func repair(path string) (valid, truncated int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: repair: %w", err)
	}
	for off := 0; off < len(data); {
		_, n, err := DecodeRecord(data[off:])
		if err != nil {
			break
		}
		off += n
		valid = int64(off)
	}
	if valid < int64(len(data)) {
		if err := os.Truncate(path, valid); err != nil {
			return 0, 0, fmt.Errorf("wal: repair: %w", err)
		}
		truncated = int64(len(data)) - valid
	}
	return valid, truncated, nil
}

// create starts segment i and fsyncs the directory so the new file name
// itself is durable (atomic rotation). Like a reopened segment, it is
// written in append mode, so cutting a torn frame off (Append) also
// moves the next write back to the cut.
func (l *Log) create(i int) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(i)), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if d, err := os.Open(l.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	l.f, l.seg, l.size = f, i, 0
	return nil
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
	if l.err != nil {
		return l.err
	}
	l.buf = AppendRecord(l.buf[:0], rec)
	if l.size > 0 && l.size+int64(len(l.buf)) > l.opt.SegmentBytes {
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

// rotate seals the open segment (fsync + close) and creates the next.
func (l *Log) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := l.create(l.seg + 1); err != nil {
		return err
	}
	l.opt.Sink.WALRotate(int64(l.seg))
	return nil
}

// Sync fsyncs the open segment. Under SyncBatched the next batch counts
// from a successful Sync, so after a failed one the next append syncs
// again.
func (l *Log) Sync() error {
	start := l.opt.Sink.Now()
	if err := fsync(l.f); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.sinceSync = 0
	l.opt.Sink.WALFsync(l.opt.Sink.Now() - start)
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
// Deletion runs in ascending index order, so a crash mid-truncation
// leaves a contiguous suffix of segments — still a valid log, just less
// compacted — and the directory is fsynced afterwards so the removals
// are durable before the caller reports success. The open segment is
// never deleted.
func (l *Log) TruncateBefore(seg int) error {
	if l.closed {
		return errors.New("wal: truncate on closed log")
	}
	if seg > l.seg {
		seg = l.seg
	}
	idx, err := segments(l.dir)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	removed := 0
	for _, i := range idx {
		if i >= seg {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segmentName(i))); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		removed++
	}
	if removed > 0 {
		if d, err := os.Open(l.dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
		l.opt.Sink.WALTruncate(int64(removed))
	}
	return nil
}

// Close syncs and closes the open segment. The log cannot be reused.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	return l.f.Close()
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
		for off, n := 0, 0; off < len(data); n++ {
			rec, size, err := DecodeRecord(data[off:])
			if err != nil {
				if last {
					return nil // torn tail from a crash; Open would repair it
				}
				return fmt.Errorf("wal: replay: segment %s offset %d: %w", segmentName(seg), off, err)
			}
			if err := fn(Pos{Seg: seg, Idx: n}, rec); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
			off += size
		}
	}
	return nil
}
