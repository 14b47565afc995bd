package adversary

import (
	"testing"

	"partalloc/internal/core"
	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Theorem 4.3: the adversary forces final load ≥ ⌈½(min{d,logN}+1)⌉ on
// every deterministic algorithm that cannot reallocate mid-sequence.
// The no-reallocation algorithms (A_G, A_B) correspond to d = ∞.
func TestDeterministicAdversaryForcesBound(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024} {
		m := tree.MustNew(n)
		for _, f := range []core.Factory{core.GreedyFactory(), core.BasicFactory()} {
			res := RunDeterministic(f.New(m), -1)
			if res.OptimalLoad != 1 {
				t.Fatalf("N=%d %s: adversary sequence has L* = %d, want 1",
					n, f.Name, res.OptimalLoad)
			}
			if res.FinalLoad < res.LowerBound {
				t.Errorf("N=%d %s: final load %d < theorem bound %d",
					n, f.Name, res.FinalLoad, res.LowerBound)
			}
			if res.MaxLoad < res.FinalLoad {
				t.Errorf("N=%d %s: max load %d < final load %d",
					n, f.Name, res.MaxLoad, res.FinalLoad)
			}
			if err := res.Sequence.Validate(n); err != nil {
				t.Fatalf("N=%d %s: invalid adversary sequence: %v", n, f.Name, err)
			}
		}
	}
}

// Against d-reallocation algorithms the adversary only runs p = d phases,
// keeping total arrivals ≤ d·N so no reallocation can trigger; the forced
// load is ⌈½(d+1)⌉.
func TestDeterministicAdversaryAgainstPeriodic(t *testing.T) {
	n := 1024
	m := tree.MustNew(n)
	for _, d := range []int{1, 2, 3, 4, 5} {
		a := core.NewPeriodic(m, d, core.DecreasingSize)
		res := RunDeterministic(a, d)
		if res.Phases != min(d, 10) {
			t.Fatalf("d=%d: phases = %d", d, res.Phases)
		}
		if res.FinalLoad < res.LowerBound {
			t.Errorf("d=%d: final load %d < bound %d", d, res.FinalLoad, res.LowerBound)
		}
		// The construction keeps total arrivals ≤ d·N so the algorithm
		// (which may reallocate once the accumulated size *reaches* d·N)
		// cannot reallocate before the final arrival. For d ≥ 2 the total
		// is strictly below d·N and no reallocation happens at all; for
		// d = 1, phase 0 alone totals exactly N = d·N, so eager A_M is
		// entitled to one reallocation at the very last arrival — which
		// cannot reduce the (trivial) d=1 bound of 1.
		if a.UsesGreedy() {
			continue
		}
		r := a.ReallocStats().Reallocations
		allowed := 0
		if d == 1 {
			allowed = 1
		}
		if r > allowed {
			t.Errorf("d=%d: algorithm reallocated %d times mid-adversary (allowed %d)", d, r, allowed)
		}
	}
}

// The adversarial sequence's total arrival size never exceeds p·N.
func TestDeterministicAdversaryArrivalBudget(t *testing.T) {
	for _, n := range []int{16, 128} {
		m := tree.MustNew(n)
		for _, d := range []int{1, 2, 3, -1} {
			res := RunDeterministic(core.NewGreedy(m), d)
			budget := int64(res.Phases) * int64(n)
			if got := res.Sequence.TotalArrivalSize(); got > budget {
				t.Errorf("N=%d d=%d: total arrivals %d > p·N = %d", n, d, got, budget)
			}
		}
	}
}

// The adversary's guarantee is tight-ish for greedy: on N PEs greedy's
// load also satisfies the Theorem 4.1 upper bound on this sequence.
func TestAdversaryVersusGreedyUpper(t *testing.T) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		m := tree.MustNew(n)
		res := RunDeterministic(core.NewGreedy(m), -1)
		upper := mathx.GreedyBound(n) * res.OptimalLoad
		if res.MaxLoad > upper {
			t.Errorf("N=%d: adversary drove greedy to %d > upper bound %d",
				n, res.MaxLoad, upper)
		}
	}
}

// A_C (0-reallocation) is immune: with d=0 the adversary gets p=0 phases
// and cannot force anything beyond L* = 1.
func TestAdversaryCannotBeatConstant(t *testing.T) {
	m := tree.MustNew(256)
	res := RunDeterministic(core.NewConstant(m), 0)
	if res.MaxLoad != 1 {
		t.Errorf("A_C forced to load %d, want 1", res.MaxLoad)
	}
}

func TestSigmaRDefaults(t *testing.T) {
	seq, stats := SigmaR(SigmaRConfig{N: 1 << 16, Seed: 1})
	if err := seq.Validate(1 << 16); err != nil {
		t.Fatalf("invalid σ_r: %v", err)
	}
	// N = 2^16: logN = 16, base = 16, phases = 16/(2·4) = 2.
	if stats.Base != 16 {
		t.Errorf("base = %d, want 16", stats.Base)
	}
	if stats.Phases != 2 {
		t.Errorf("phases = %d, want 2", stats.Phases)
	}
	if stats.KeepProb != 1.0/16 {
		t.Errorf("keep prob = %g", stats.KeepProb)
	}
	if stats.TheoremBound <= 0 || stats.ProvedBound <= 0 || stats.ProvedBound > stats.TheoremBound*7 {
		t.Errorf("bounds look wrong: %+v", stats)
	}
}

// Lemma 5: s(σ_r) ≤ N with high probability. With our power-of-two base
// the phase-0 arrivals total N/3 and survivors are rare; check across
// seeds that the sequence size never exceeds N and L* = 1.
func TestSigmaRLemma5(t *testing.T) {
	n := 1 << 14
	for seed := int64(0); seed < 50; seed++ {
		seq, stats := SigmaR(SigmaRConfig{N: n, Seed: seed})
		if stats.SequenceSize > int64(n) {
			t.Errorf("seed %d: s(σ_r) = %d > N = %d", seed, stats.SequenceSize, n)
		}
		if stats.OptimalLoad != 1 {
			t.Errorf("seed %d: L* = %d, want 1", seed, stats.OptimalLoad)
		}
		if seq.NumArrivals() == 0 {
			t.Errorf("seed %d: empty σ_r", seed)
		}
	}
}

// σ_r must actually hurt: across seeds, the mean max load of the greedy
// and randomized algorithms on σ_r exceeds the proved lower-bound factor
// (L* = 1).
func TestSigmaRForcesLoad(t *testing.T) {
	n := 1 << 14
	m := tree.MustNew(n)
	const seeds = 30
	sumG, sumR := 0.0, 0.0
	var proved float64
	for seed := int64(0); seed < seeds; seed++ {
		seq, stats := SigmaR(SigmaRConfig{N: n, Seed: seed})
		proved = stats.ProvedBound
		g := core.NewGreedy(m2(n))
		sumG += float64(maxLoadOn(g, seq))
		r := core.NewRandom(m2(n), seed+1000)
		sumR += float64(maxLoadOn(r, seq))
	}
	_ = m
	if sumG/seeds < proved {
		t.Errorf("greedy mean load %.2f below proved bound %.2f", sumG/seeds, proved)
	}
	if sumR/seeds < proved {
		t.Errorf("randomized mean load %.2f below proved bound %.2f", sumR/seeds, proved)
	}
}

func m2(n int) *tree.Machine { return tree.MustNew(n) }

func maxLoadOn(a core.Allocator, seq task.Sequence) int {
	max := 0
	for _, e := range seq.Events {
		switch e.Kind {
		case task.Arrive:
			a.Arrive(task.Task{ID: e.Task, Size: e.Size})
		case task.Depart:
			a.Depart(e.Task)
		}
		if l := a.MaxLoad(); l > max {
			max = l
		}
	}
	return max
}

func TestSigmaROverrides(t *testing.T) {
	seq, stats := SigmaR(SigmaRConfig{N: 256, Base: 4, Phases: 3, KeepProb: 0.5, Seed: 9})
	if stats.Base != 4 || stats.Phases != 3 || stats.KeepProb != 0.5 {
		t.Fatalf("overrides not honored: %+v", stats)
	}
	if err := seq.Validate(256); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	// Sizes used: 1, 4, 16.
	seen := map[int]bool{}
	for _, e := range seq.Events {
		if e.Kind == task.Arrive {
			seen[e.Size] = true
		}
	}
	for _, want := range []int{1, 4, 16} {
		if !seen[want] {
			t.Errorf("size %d never arrived", want)
		}
	}
}
