package core

import (
	"strings"
	"testing"

	"partalloc/internal/tree"
)

// capsOf lists the optional interfaces a implements, in a fixed order.
func capsOf(a Allocator) string {
	var caps []string
	add := func(ok bool, name string) {
		if ok {
			caps = append(caps, name)
		}
	}
	_, ok := a.(Reallocator)
	add(ok, "Reallocator")
	_, ok = a.(Observable)
	add(ok, "Observable")
	_, ok = a.(Degradable)
	add(ok, "Degradable")
	_, ok = a.(FaultTolerant)
	add(ok, "FaultTolerant")
	_, ok = a.(BatchApplier)
	add(ok, "BatchApplier")
	_, ok = a.(Checkpointable)
	add(ok, "Checkpointable")
	return strings.Join(caps, " ")
}

// TestConstructorCapabilities pins which optional interfaces each
// constructor's result implements. The engine and the facade discover
// capabilities by type assertion, so sharing state between allocators
// must not hand one of them another's methods: A_B has no Degrade knob
// and no reallocation ledger, and only A_Rand batches among the seeded
// allocators.
func TestConstructorCapabilities(t *testing.T) {
	m := tree.MustNew(64)
	const all = "Reallocator Observable Degradable FaultTolerant BatchApplier Checkpointable"
	for _, tc := range []struct {
		name string
		a    Allocator
		want string
	}{
		{"A_G", NewGreedy(m), "FaultTolerant Checkpointable"},
		{"A_B", NewBasic(m), "FaultTolerant BatchApplier Checkpointable"},
		{"A_C", NewConstant(m), all},
		{"A_M(d=2)", NewPeriodic(m, 2, DecreasingSize), all},
		{"A_M(d=inf)", NewPeriodic(m, -1, DecreasingSize), all},
		{"A_M-lazy(d=2)", NewLazy(m, 2, DecreasingSize), all},
		{"A_M-lazy(d=inf)", NewLazy(m, -1, DecreasingSize), all},
		{"A_Rand", NewRandom(m, 1), "BatchApplier Checkpointable"},
		{"A_2choice", NewTwoChoice(m, 1), "Checkpointable"},
		{"A_G-randtie", NewGreedyRandomTie(m, 1), "Checkpointable"},
	} {
		if got := capsOf(tc.a); got != tc.want {
			t.Errorf("%s implements %q, want %q", tc.name, got, tc.want)
		}
		if got := tc.a.Name(); got != tc.name {
			t.Errorf("%s is named %q", tc.name, got)
		}
	}
}
