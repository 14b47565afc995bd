package impl

import (
	"math/rand"
	"time"

	"fixtures/purealloc_fixture/core"
	"fixtures/purealloc_fixture/h"
)

// hits is package-level state; allocator methods must not touch it.
var hits int

// Good mutates only its receiver and uses an injected seeded generator.
type Good struct {
	n   int
	rng *rand.Rand
}

func NewGood(seed int64) *Good {
	return &Good{rng: rand.New(rand.NewSource(seed))}
}

func (g *Good) Name() string { return "good" }

func (g *Good) Arrive(t core.Task) int {
	g.n++
	return h.Double(h.Pick(g.rng, t.Size+1))
}

func (g *Good) Depart(id int) { g.n-- }

// Clocky reads the wall clock through a helper two hops away.
type Clocky struct{}

func (Clocky) Name() string { return "clocky" }

func (Clocky) Arrive(t core.Task) int { // want `allocator method impl\.Clocky\.Arrive is impure: h\.Indirect \(h\.Stamp \(wall clock \(time\.Now\)\)\) — allocator decisions must be a pure function of events and seed` Clocky.Arrive:`impure: h\.Indirect \(h\.Stamp \(wall clock \(time\.Now\)\)\)`
	return int(h.Indirect()) % (t.Size + 1)
}

func (Clocky) Depart(id int) {}

// Racy counts arrivals in package state.
type Racy struct{}

func (Racy) Name() string { return "racy" }

func (Racy) Arrive(t core.Task) int { // want `allocator method impl\.Racy\.Arrive is impure: mutates package variable impl\.hits` Racy.Arrive:`impure: mutates package variable impl\.hits`
	hits++
	return t.Size
}

func (Racy) Depart(id int) {}

// Randy draws from the global source directly.
type Randy struct{}

func (Randy) Name() string { return "randy" }

func (Randy) Arrive(t core.Task) int { // want `allocator method impl\.Randy\.Arrive is impure: global math/rand \(rand\.Intn\)` Randy.Arrive:`impure: global math/rand \(rand\.Intn\)`
	return rand.Intn(t.Size + 1)
}

func (Randy) Depart(id int) {}

// Sleepy arms a wall-clock wait.
type Sleepy struct{}

func (Sleepy) Name() string { return "sleepy" }

func (Sleepy) Arrive(t core.Task) int { // want `allocator method impl\.Sleepy\.Arrive is impure: wall clock \(time\.Sleep\)` Sleepy.Arrive:`impure: wall clock \(time\.Sleep\)`
	time.Sleep(time.Millisecond)
	return t.Size
}

func (Sleepy) Depart(id int) {}

// ledger is bookkeeping that allocators embed. It implements no
// Allocator itself, but its methods become theirs by promotion.
type ledger struct{ n int }

func (l *ledger) Depart(id int) { // want `allocator method impl\.ledger\.Depart is impure: mutates package variable impl\.hits` ledger.Depart:`impure: mutates package variable impl\.hits`
	hits++
	l.n--
}

// Booked and Booked2 share ledger's impure Depart, reported once where it
// is declared.
type Booked struct{ ledger }

func (b *Booked) Name() string { return "booked" }

func (b *Booked) Arrive(t core.Task) int {
	b.n++
	return t.Size
}

type Booked2 struct{ ledger }

func (b *Booked2) Name() string { return "booked2" }

func (b *Booked2) Arrive(t core.Task) int { return t.Size }

// record is NOT an allocator: impure helpers outside implementations get
// facts but no diagnostics.
func record() { // want record:`impure: mutates package variable impl\.hits`
	hits++
}
