package core

import (
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// GreedyRandomTie is the tie-breaking ablation of A_G: it follows the same
// minimum-load placement rule but breaks ties uniformly at random instead
// of leftmost. Theorem 4.1's proof only uses minimum-load selection, so
// the bound applies to it unchanged; the variant exists to show that the
// leftmost rule is a determinism device, not a load-shaping one (and to
// measure whether randomized ties change average-case packing — E3's
// ablation row).
type GreedyRandomTie struct {
	seeded
}

// NewGreedyRandomTie returns the random-tie greedy variant.
func NewGreedyRandomTie(m *tree.Machine, seed int64) *GreedyRandomTie {
	return &GreedyRandomTie{newSeeded(m, "A_G-randtie", tagGreedyTie, seed)}
}

// GreedyRandomTieFactory builds random-tie greedy allocators.
func GreedyRandomTieFactory(seed int64) Factory {
	return Factory{
		Name: "A_G-randtie",
		New:  func(m *tree.Machine) Allocator { return NewGreedyRandomTie(m, seed) },
	}
}

// Arrive implements Allocator: find the minimum load via the leftmost-min
// query, then reservoir-sample uniformly among all submachines tying it.
func (g *GreedyRandomTie) Arrive(t task.Task) tree.Node {
	slot := g.admit(t)
	_, min := g.loads.LeftmostMinLoad(t.Size)
	// Reservoir-sample among ties.
	var pick tree.Node
	count := 0
	for _, v := range g.m.Submachines(t.Size) {
		if g.loads.SubmachineLoad(v) == min {
			count++
			if g.rng.Intn(count) == 0 {
				pick = v
			}
		}
	}
	g.place(slot, t, pick)
	return pick
}
