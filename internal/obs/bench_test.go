package obs

import "testing"

// BenchmarkHistogramObserve times one Histogram.Observe, the price a
// per-call stage histogram adds to every call it times: serial, and
// from GOMAXPROCS goroutines sharing one series, where the three atomic
// adds contend for the same cache lines. The samples cycle from 1 µs to
// about 1 ms, so they land in eleven buckets.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewMetrics().Histogram("partalloc_bench_latency_seconds", "help", L("tenant", "t"))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(1000 << (i % 11))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				h.Observe(1000 << (i % 11))
			}
		})
	})
}
