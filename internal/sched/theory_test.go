package sched

import (
	"math"
	"math/rand"
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// When every job requests the whole machine, gang round-robin is exactly
// M/M/1 processor sharing: with Poisson arrivals at rate λ and exponential
// work with mean w (offered load ρ = λ·w < 1), queueing theory gives
// E[slowdown] = E[T]/E[S] = 1/(1−ρ). Validating the simulator against the
// closed form checks the whole event loop: rate recomputation, advance,
// endogenous departures.
func TestSchedMatchesMM1ProcessorSharing(t *testing.T) {
	const n = 8
	const meanWork = 1.0
	for _, rho := range []float64{0.3, 0.6} {
		lambda := rho / meanWork
		rng := rand.New(rand.NewSource(42))
		var sumSlow float64
		var jobs int
		const trials = 4
		for trial := 0; trial < trials; trial++ {
			w := Workload{}
			now := 0.0
			const count = 2500
			for i := 1; i <= count; i++ {
				now += rng.ExpFloat64() / lambda
				w.Jobs = append(w.Jobs, Job{
					ID:      task.ID(i),
					Size:    n, // whole machine: pure processor sharing
					Arrival: now,
					Work:    rng.ExpFloat64() * meanWork,
				})
			}
			// Zero-work jobs are invalid; clamp.
			for i := range w.Jobs {
				if w.Jobs[i].Work <= 0 {
					w.Jobs[i].Work = 1e-6
				}
			}
			res := Run(core.NewGreedy(tree.MustNew(n)), w, Options{})
			// Discard warmup and drain tails: keep the middle half by
			// completion order.
			for _, j := range res.Jobs[len(res.Jobs)/4 : 3*len(res.Jobs)/4] {
				sumSlow += j.Slowdown
				jobs++
			}
		}
		got := sumSlow / float64(jobs)
		want := 1 / (1 - rho)
		// The PS slowdown estimator E[T/S] differs from E[T]/E[S]: for
		// M/M/1-PS, E[T|S=s] = s/(1−ρ) exactly, so E[T/S] = 1/(1−ρ) too —
		// the conditional linearity makes both estimators agree.
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("ρ=%.1f: mean slowdown %.3f, M/M/1-PS predicts %.3f (±10%%)",
				rho, got, want)
		}
	}
}

// With two independent half-machine streams, each half behaves as its own
// PS queue under greedy (it separates the halves); sanity that slowdowns
// match the same closed form per half.
func TestSchedTwoIndependentHalves(t *testing.T) {
	const n = 8
	const meanWork = 1.0
	const rho = 0.5
	lambda := 2 * rho / meanWork // two streams share the arrival process
	rng := rand.New(rand.NewSource(7))
	w := Workload{}
	now := 0.0
	const count = 4000
	for i := 1; i <= count; i++ {
		now += rng.ExpFloat64() / lambda
		work := rng.ExpFloat64() * meanWork
		if work <= 0 {
			work = 1e-6
		}
		w.Jobs = append(w.Jobs, Job{ID: task.ID(i), Size: n / 2, Arrival: now, Work: work})
	}
	res := Run(core.NewGreedy(tree.MustNew(n)), w, Options{})
	var sum float64
	var cnt int
	for _, j := range res.Jobs[len(res.Jobs)/4 : 3*len(res.Jobs)/4] {
		sum += j.Slowdown
		cnt++
	}
	got := sum / float64(cnt)
	want := 1 / (1 - rho)
	// Greedy's placement isn't a perfect splitter (it balances loads, which
	// at times co-locates), so allow a generous band above the lower bound.
	if got < 1 || got > want*1.4 {
		t.Errorf("two-stream slowdown %.3f outside [1, %.3f]", got, want*1.4)
	}
}
