package core

import (
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Random is the oblivious randomized algorithm of §5.1 (the paper also
// calls it A_R; we write A_Rand to avoid colliding with the reallocation
// procedure A_R of §3). On arrival of a size-2^x task it assigns it to a
// submachine chosen uniformly at random among the N/2^x submachines of
// that size — i.e. each with probability 2^x/N — ignoring current loads.
// It never reallocates. Theorem 5.1: its maximum expected load is at most
// (3·log N / log log N + 1) · L*.
type Random struct {
	seeded
}

// NewRandom returns A_Rand on machine m, drawing from the given seed.
func NewRandom(m *tree.Machine, seed int64) *Random {
	return &Random{newSeeded(m, "A_Rand", tagRandom, seed)}
}

// RandomFactory builds A_Rand allocators with the given seed.
func RandomFactory(seed int64) Factory {
	return Factory{Name: "A_Rand", New: func(m *tree.Machine) Allocator { return NewRandom(m, seed) }}
}

// Arrive implements Allocator with the oblivious uniform rule.
func (r *Random) Arrive(t task.Task) tree.Node {
	slot := r.admit(t)
	k := r.m.NumSubmachines(t.Size)
	v := r.m.SubmachineAt(t.Size, r.rng.Intn(k))
	r.place(slot, t, v)
	return v
}
