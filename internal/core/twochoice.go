package core

import (
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// TwoChoice is the balanced-allocations baseline (Azar, Broder, Karlin,
// Upfal, STOC'94 — the paper's related work [2]) adapted to submachine
// allocation: on arrival, draw two submachines of the task's size
// uniformly at random and place the task on the less loaded one (leftmost
// on a tie). It never reallocates.
//
// It sits between the oblivious A_Rand and the fully load-aware A_G: two
// random probes instead of a machine-wide scan, yet the classic
// power-of-two-choices effect drops the expected excess load from
// Θ(log N/log log N) to Θ(log log N) on the balls-into-bins workload —
// experiment E6 shows the separation.
type TwoChoice struct {
	seeded
}

// NewTwoChoice returns the two-choice allocator with the given seed.
func NewTwoChoice(m *tree.Machine, seed int64) *TwoChoice {
	return &TwoChoice{newSeeded(m, "A_2choice", tagTwoChoice, seed)}
}

// TwoChoiceFactory builds two-choice allocators with the given seed.
func TwoChoiceFactory(seed int64) Factory {
	return Factory{Name: "A_2choice", New: func(m *tree.Machine) Allocator { return NewTwoChoice(m, seed) }}
}

// Arrive implements Allocator with the two-choice rule.
func (t *TwoChoice) Arrive(tk task.Task) tree.Node {
	slot := t.admit(tk)
	k := t.m.NumSubmachines(tk.Size)
	a := t.m.SubmachineAt(tk.Size, t.rng.Intn(k))
	b := t.m.SubmachineAt(tk.Size, t.rng.Intn(k))
	v := a
	la, lb := t.loads.SubmachineLoad(a), t.loads.SubmachineLoad(b)
	if lb < la || (lb == la && b < a) {
		v = b
	}
	t.place(slot, tk, v)
	return v
}
