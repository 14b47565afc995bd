package adversary

import (
	"math"
	"math/rand"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
)

// SigmaRConfig parameterizes the random lower-bound sequence σ_r of
// Theorem 5.2.
//
// The paper's construction runs log N/(2·log log N) phases; in phase i,
// N/(3·logⁱN) tasks of size logⁱN arrive and each departs with probability
// 1 − 1/log N before the next phase. Task sizes in the model must be
// powers of two, so we substitute B = 2^⌈lg lg N⌉ (the smallest power of
// two ≥ log₂N) for "log N" as the size base; the phase count then becomes
// ⌊log₂N / (2·log₂B)⌋. The bound's shape — load growing while L* stays at
// 1 with high probability — is preserved (see EXPERIMENTS.md, E7).
type SigmaRConfig struct {
	// N is the machine size (power of two).
	N int
	// Base overrides the size base B; 0 selects 2^⌈lg lg N⌉.
	Base int
	// Phases overrides the phase count; 0 selects ⌊log₂N/(2·log₂B)⌋,
	// with a minimum of 1.
	Phases int
	// KeepProb overrides the per-task survival probability; 0 selects the
	// paper's 1/log₂N.
	KeepProb float64
	// Seed drives the survival coin flips.
	Seed int64
}

// withDefaults resolves zero fields to the paper's choices.
func (c SigmaRConfig) withDefaults() SigmaRConfig {
	logN := mathx.Log2(c.N)
	if c.Base == 0 {
		c.Base = mathx.CeilPow2(max(logN, 2))
	}
	if c.Phases == 0 {
		c.Phases = max(1, logN/(2*mathx.Log2(c.Base)))
	}
	if c.KeepProb == 0 {
		c.KeepProb = 1 / float64(logN)
	}
	return c
}

// SigmaRStats describes the generated sequence.
type SigmaRStats struct {
	Base     int
	Phases   int
	KeepProb float64
	// SequenceSize is s(σ_r); Lemma 5 says it is ≤ N with high probability.
	SequenceSize int64
	// OptimalLoad is L* = ⌈s(σ_r)/N⌉.
	OptimalLoad int
	// TheoremBound is the paper's stated factor (1/7)(log N/log log N)^{1/3}.
	TheoremBound float64
	// ProvedBound is the factor (log N/(240·log log N))^{1/3} the proof of
	// Lemma 7 actually establishes.
	ProvedBound float64
}

// SigmaR generates one draw of the random sequence σ_r.
func SigmaR(cfg SigmaRConfig) (task.Sequence, SigmaRStats) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := task.NewBuilder()
	sz := 1
	for i := 0; i < cfg.Phases; i++ {
		if i > 0 {
			sz *= cfg.Base
		}
		if sz > cfg.N {
			break
		}
		count := cfg.N / (3 * sz)
		if count < 1 {
			count = 1
		}
		ids := make([]task.ID, 0, count)
		for j := 0; j < count; j++ {
			ids = append(ids, b.Arrive(sz))
		}
		// Each task of this phase departs with probability 1 − keepProb.
		for _, id := range ids {
			if rng.Float64() >= cfg.KeepProb {
				b.Depart(id)
			}
		}
	}
	seq := b.Sequence()
	logN := float64(mathx.Log2(cfg.N))
	loglogN := math.Log2(logN)
	stats := SigmaRStats{
		Base:         cfg.Base,
		Phases:       cfg.Phases,
		KeepProb:     cfg.KeepProb,
		SequenceSize: seq.Size(),
		OptimalLoad:  seq.OptimalLoad(cfg.N),
		TheoremBound: math.Cbrt(logN/loglogN) / 7,
		ProvedBound:  math.Cbrt(logN / (240 * loglogN)),
	}
	return seq, stats
}
