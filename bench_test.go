// Benchmark harness: one benchmark per experiment artifact (E1–E14, see
// DESIGN.md's experiment index) plus micro-benchmarks of the allocator hot
// paths. Run with:
//
//	go test -bench=. -benchmem
//
// The E-benchmarks (E1–E14) execute the corresponding experiment in Quick mode per
// iteration; their purpose is regeneration and regression-tracking of each
// artifact, not nanosecond shaving. The per-op benchmarks at the bottom
// measure the data-structure costs that make paper-scale simulation cheap.
package partalloc_test

import (
	"testing"

	"partalloc"
	"partalloc/internal/experiments"
)

var benchCfg = experiments.Config{Quick: true, Seeds: 2}

func benchArtifact(b *testing.B, run func(experiments.Config) experiments.Artifact) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		art := run(benchCfg)
		if len(art.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkE1Figure1(b *testing.B) {
	benchArtifact(b, func(experiments.Config) experiments.Artifact { return experiments.Figure1() })
}

func BenchmarkE2Optimal0Realloc(b *testing.B) { benchArtifact(b, experiments.E2Optimal0Realloc) }

func BenchmarkE3GreedyUpper(b *testing.B) { benchArtifact(b, experiments.E3GreedyUpper) }

func BenchmarkE4Tradeoff(b *testing.B) { benchArtifact(b, experiments.E4Tradeoff) }

func BenchmarkE5DetLowerBound(b *testing.B) { benchArtifact(b, experiments.E5DetLowerBound) }

func BenchmarkE6RandUpper(b *testing.B) { benchArtifact(b, experiments.E6RandUpper) }

func BenchmarkE7RandLowerBound(b *testing.B) { benchArtifact(b, experiments.E7RandLowerBound) }

func BenchmarkE8ReallocCost(b *testing.B) { benchArtifact(b, experiments.E8ReallocCost) }

func BenchmarkE9Topologies(b *testing.B) { benchArtifact(b, experiments.E9Topologies) }

func BenchmarkE10Slowdown(b *testing.B) { benchArtifact(b, experiments.E10Slowdown) }

func BenchmarkE11ClosedLoop(b *testing.B) { benchArtifact(b, experiments.E11ClosedLoop) }

func BenchmarkE12SpaceVsTime(b *testing.B) { benchArtifact(b, experiments.E12SpaceVsTime) }

func BenchmarkE13TreeRestriction(b *testing.B) { benchArtifact(b, experiments.E13TreeRestriction) }

func BenchmarkE14WorkloadSensitivity(b *testing.B) {
	benchArtifact(b, experiments.E14WorkloadSensitivity)
}

// --- Allocator micro-benchmarks -------------------------------------------

// benchWorkload is a shared churn sequence sized so every algorithm stays
// busy: near-saturation with steady arrivals and departures.
func benchWorkload(n, events int, seed int64) partalloc.Sequence {
	return partalloc.SaturationWorkload(partalloc.SaturationConfig{
		N: n, Events: events, Seed: seed, Churn: 0.25,
	})
}

func benchAllocator(b *testing.B, mk func(m *partalloc.Machine) partalloc.Allocator) {
	const n = 1024
	const events = 4096
	seq := benchWorkload(n, events, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := partalloc.MustNewMachine(n)
		res := partalloc.Simulate(mk(m), seq, partalloc.SimOptions{})
		if res.MaxLoad < res.LStar {
			b.Fatal("impossible load")
		}
	}
	b.SetBytes(int64(events))
}

func BenchmarkAllocGreedy(b *testing.B) {
	benchAllocator(b, func(m *partalloc.Machine) partalloc.Allocator {
		return partalloc.MustNew(partalloc.AlgoGreedy, m)
	})
}

func BenchmarkAllocBasic(b *testing.B) {
	benchAllocator(b, func(m *partalloc.Machine) partalloc.Allocator {
		return partalloc.MustNew(partalloc.AlgoBasic, m)
	})
}

func BenchmarkAllocConstant(b *testing.B) {
	benchAllocator(b, func(m *partalloc.Machine) partalloc.Allocator {
		return partalloc.MustNew(partalloc.AlgoConstant, m)
	})
}

func BenchmarkAllocPeriodicD2(b *testing.B) {
	benchAllocator(b, func(m *partalloc.Machine) partalloc.Allocator {
		return partalloc.MustNew(partalloc.AlgoPeriodic, m, partalloc.WithD(2))
	})
}

func BenchmarkAllocLazyD2(b *testing.B) {
	benchAllocator(b, func(m *partalloc.Machine) partalloc.Allocator {
		return partalloc.MustNew(partalloc.AlgoLazy, m, partalloc.WithD(2))
	})
}

func BenchmarkAllocRandom(b *testing.B) {
	benchAllocator(b, func(m *partalloc.Machine) partalloc.Allocator {
		return partalloc.MustNew(partalloc.AlgoRandom, m, partalloc.WithSeed(3))
	})
}

// BenchmarkAdversaryGreedy measures the interactive lower-bound
// construction itself (E5's engine).
func BenchmarkAdversaryGreedy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := partalloc.MustNewMachine(256)
		res := partalloc.RunAdversary(partalloc.MustNew(partalloc.AlgoGreedy, m), -1)
		if res.FinalLoad < res.LowerBound {
			b.Fatal("bound not met")
		}
	}
}

// BenchmarkSigmaR measures σ_r generation (E7's engine).
func BenchmarkSigmaR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seq, _ := partalloc.SigmaR(partalloc.SigmaRConfig{N: 1 << 16, Seed: int64(i)})
		if len(seq.Events) == 0 {
			b.Fatal("empty sequence")
		}
	}
}
