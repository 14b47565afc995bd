package wal

import (
	"testing"

	"partalloc/internal/task"
)

// BenchmarkLogAppend measures one Log.Append of a TypeSubmit record
// holding a 32-event burst, the record journal-ingest writes per call,
// under each sync policy at the default 4 MiB segments, and under
// SyncNever at journal-ingest's 1 MiB segments, where a rotation and its
// seal come every ~2,600 appends. Sealed segments are deleted as the log
// rotates, as compaction would, so the log stays at two segments however
// long the benchmark runs.
func BenchmarkLogAppend(b *testing.B) {
	evs := make([]task.Event, 32)
	for i := range evs {
		kind := task.Arrive
		if i%2 == 1 {
			kind = task.Depart
		}
		evs[i] = task.Event{Kind: kind, Task: task.ID(1000 + i/2), Size: 1 << (i % 5), Time: float64(i) * 0.75}
	}
	rec := Record{Type: TypeSubmit, Tenant: "tenant-07", Data: AppendEvents(nil, evs)}
	cases := []struct {
		name string
		opt  Options
	}{
		{"never", Options{Sync: SyncNever}},
		{"batched", Options{Sync: SyncBatched}},
		{"always", Options{Sync: SyncAlways}},
		{"never-1MiB", Options{Sync: SyncNever, SegmentBytes: 1 << 20}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			l, err := Open(b.TempDir(), c.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetBytes(int64(len(AppendRecord(nil, rec))))
			b.ResetTimer()
			seg := l.Seg()
			for i := 0; i < b.N; i++ {
				if err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
				if l.Seg() != seg {
					seg = l.Seg()
					if err := l.TruncateBefore(seg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
