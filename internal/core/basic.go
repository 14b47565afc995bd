package core

import (
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Basic is algorithm A_B (§4.1): maintain an ordered list of copies of T;
// on arrival, place the task in the leftmost vacant submachine of the first
// copy that has one, creating a new copy if none does. It never
// reallocates. Lemma 2: its load never exceeds ⌈S/N⌉ where S is the total
// size of all arrivals so far (departures included in the sequence do not
// help it, which is exactly why A_M pairs it with periodic reallocation).
type Basic struct {
	copyPlaced
}

// NewBasic returns A_B on machine m.
func NewBasic(m *tree.Machine) *Basic {
	return &Basic{newCopyPlaced(m)}
}

// BasicFactory builds A_B allocators.
func BasicFactory() Factory {
	return Factory{Name: "A_B", New: func(m *tree.Machine) Allocator { return NewBasic(m) }}
}

// Name implements Allocator.
func (b *Basic) Name() string { return "A_B" }

// Arrive implements Allocator with first-fit over copies.
func (b *Basic) Arrive(t task.Task) tree.Node {
	checkArrival(b.m, t)
	slot, dup := b.placed.find(t.ID)
	if dup {
		panicDuplicate(t.ID, "A_B")
	}
	return b.place(slot, t)
}

// Depart implements Allocator.
func (b *Basic) Depart(id task.ID) {
	if _, ok := b.depart(id); !ok {
		panicUnknown(id, "A_B")
	}
}

// Copies returns the number of copies A_B has created so far; Lemma 2
// bounds it by ⌈S/N⌉. Exposed for the tests that verify the lemma.
func (b *Basic) Copies() int { return b.list.Len() }

// FailPE implements FaultTolerant.
func (b *Basic) FailPE(pe int) []Migration { return b.failPE(pe, nil) }
