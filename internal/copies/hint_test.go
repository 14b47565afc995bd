package copies

import (
	"math/rand"
	"slices"
	"testing"

	"partalloc/internal/tree"
)

// naiveFirstFit is the reference first-fit rule: scan every copy from the
// front. The hinted Place must pick the same copy and node.
func naiveFirstFit(l *List, size int) (int, tree.Node, bool) {
	for i := 0; i < l.Len(); i++ {
		if v, ok := l.At(i).FindVacant(size); ok {
			return i, v, true
		}
	}
	return 0, 0, false
}

// listOracle drives a List and checks every Place and PlaceExisting
// against naiveFirstFit. It tracks the live placements and the failed leaves, so
// every operation it makes is one the List accepts.
type listOracle struct {
	t       testing.TB
	m       *tree.Machine
	l       *List
	live    []livePlacement
	blocked []tree.Node
	// packedPlaces counts the Places answered in the packed state.
	packedPlaces int
}

type livePlacement struct {
	ci   int
	node tree.Node
}

func newListOracle(t testing.TB, m *tree.Machine) *listOracle {
	return &listOracle{t: t, m: m, l: NewList(m)}
}

// freshVacant returns where first fit would put a task of the given size
// in a new copy, which has every failed leaf blocked.
func (o *listOracle) freshVacant(size int) (tree.Node, bool) {
	c := NewCopy(o.m)
	for _, b := range o.blocked {
		c.Block(b)
	}
	return c.FindVacant(size)
}

// place places a task of the given size and checks the result against a
// full scan. It skips a size that no healthy submachine can host, where
// Place panics.
func (o *listOracle) place(size int) {
	wantCi, wantV, inExisting := naiveFirstFit(o.l, size)
	if !inExisting {
		v, ok := o.freshVacant(size)
		if !ok {
			return
		}
		wantCi, wantV = o.l.Len(), v
	}
	if o.l.packed {
		o.packedPlaces++
	}
	ci, v := o.l.Place(size)
	if ci != wantCi || v != wantV {
		o.t.Fatalf("Place(%d) = (%d,%d), first fit (%d,%d)", size, ci, v, wantCi, wantV)
	}
	o.live = append(o.live, livePlacement{ci, v})
}

// placeExisting places a task of the given size by PlaceExisting and
// checks the result against a full scan of the existing copies: the same
// copy and node, or, when no copy has room, no placement and no new
// copy. It reports whether the task was placed.
func (o *listOracle) placeExisting(size int) bool {
	wantCi, wantV, want := naiveFirstFit(o.l, size)
	copiesBefore := o.l.Len()
	ci, v, ok := o.l.PlaceExisting(size)
	if ok != want || ok && (ci != wantCi || v != wantV) {
		o.t.Fatalf("PlaceExisting(%d) = (%d,%d,%v), first fit (%d,%d,%v)", size, ci, v, ok, wantCi, wantV, want)
	}
	if !ok {
		if o.l.Len() != copiesBefore {
			o.t.Fatalf("failed PlaceExisting(%d) grew the list from %d to %d copies", size, copiesBefore, o.l.Len())
		}
		return false
	}
	o.live = append(o.live, livePlacement{ci, v})
	return true
}

func (o *listOracle) vacate(i int) {
	p := o.live[i]
	o.l.Vacate(p.ci, p.node)
	o.live = slices.Delete(o.live, i, i+1)
}

// block fails the leaf unless it is failed already or lies inside a live
// placement.
func (o *listOracle) block(leaf tree.Node) {
	if slices.Contains(o.blocked, leaf) {
		return
	}
	for _, p := range o.live {
		if o.m.Contains(p.node, leaf) {
			return
		}
	}
	o.l.Block(leaf)
	o.blocked = append(o.blocked, leaf)
}

func (o *listOracle) unblock(i int) {
	o.l.Unblock(o.blocked[i])
	o.blocked = slices.Delete(o.blocked, i, i+1)
}

func (o *listOracle) reset() {
	o.l.Reset()
	o.live = o.live[:0]
}

// check runs every copy's CheckInvariants, and on a packed list checks
// the packed prefix itself: full copies before the cursor's, exactly the
// fill in the cursor's, and no copy after it.
func (o *listOracle) check() {
	for i := 0; i < o.l.Len(); i++ {
		o.l.At(i).CheckInvariants()
	}
	if !o.l.packed {
		return
	}
	n := o.m.N()
	if len(o.l.blockedLeaves) != 0 || o.l.Len() != (o.l.fill+n-1)/n {
		o.t.Fatalf("packed list: %d copies, %d failed leaves, fill %d", o.l.Len(), len(o.l.blockedLeaves), o.l.fill)
	}
	for i := 0; i < o.l.Len(); i++ {
		want := min(n, o.l.fill-i*n)
		if got := o.l.At(i).OccupiedPEs(); got != want {
			o.t.Fatalf("packed list, fill %d: copy %d occupies %d PEs, want %d", o.l.fill, i, got, want)
		}
	}
}

// TestFirstFitHintMatchesNaiveScan drives a list through random placements,
// vacates, failures and recoveries, checking every Place and
// PlaceExisting against a full scan. Every other placement is A_M-lazy's
// earned-budget shape: PlaceExisting, then Place only when it fails. The
// no-reset run is A_B's shape: the list grows to hundreds of copies
// whose hints drift apart, and Vacate rewinds them deep. The reset run
// adds resets, each followed by a run of non-increasing sizes, which a
// fault-free list answers from its packed prefix, and PlaceExisting now
// and then ends that state mid-run.
func TestFirstFitHintMatchesNaiveScan(t *testing.T) {
	m := tree.MustNew(32)
	t.Run("no-reset", func(t *testing.T) {
		o := driveList(t, m, false)
		if o.l.Len() < 200 {
			t.Fatalf("the list grew to only %d copies", o.l.Len())
		}
	})
	t.Run("reset", func(t *testing.T) {
		o := driveList(t, m, true)
		if o.packedPlaces < 500 {
			t.Fatalf("only %d placements ran on a packed list", o.packedPlaces)
		}
	})
}

// driveList runs 4000 random steps on a new list over m through a
// listOracle, resetting at random when resets is set.
func driveList(t *testing.T, m *tree.Machine, resets bool) *listOracle {
	o := newListOracle(t, m)
	rng := rand.New(rand.NewSource(5))
	randomSize := func() int { return 1 << rng.Intn(m.Levels()+1) }
	for step := 0; step < 4000; step++ {
		switch {
		case resets && rng.Intn(40) == 0:
			if rng.Intn(2) == 0 {
				for len(o.blocked) > 0 {
					o.unblock(0)
				}
			}
			o.reset()
			size := randomSize()
			for k := rng.Intn(3 * m.N() / 2); k > 0; k-- {
				size >>= rng.Intn(2)
				size = max(size, 1)
				if rng.Intn(16) == 0 {
					o.placeExisting(randomSize())
				}
				o.place(size)
			}
		case len(o.live) > 0 && rng.Intn(3) == 0:
			o.vacate(rng.Intn(len(o.live)))
		case rng.Intn(40) == 0 && len(o.blocked) < m.N()-1:
			o.block(m.LeafOf(rng.Intn(m.N())))
		case rng.Intn(40) == 0 && len(o.blocked) > 0:
			o.unblock(rng.Intn(len(o.blocked)))
		default:
			size := randomSize()
			if step%2 == 0 || !o.placeExisting(size) {
				o.place(size)
			}
		}
		if step%50 == 0 {
			o.check()
		}
	}
	return o
}

// FuzzListPlace runs op sequences of Reset, Place, Vacate, Block, Unblock
// and PlaceExisting on a List over N = 2..32 PEs, checking every Place and
// PlaceExisting against naiveFirstFit and every copy's invariants after each
// op. Each op is two bytes: the op and its operand. Only the first 256
// ops run: the checks after each op cost time linear in the copies.
func FuzzListPlace(f *testing.F) {
	const (
		opReset = iota
		opVacate
		opBlock
		opUnblock
		opPlaceExisting
		opPlace // and every op byte above it
	)
	// Each seed runs on N=8, where an operand of 0..3 places size 1..8.
	// Three full copies and a half one leave high hints behind; after a
	// reset, a packed run and the PlaceExisting that ends it must not use
	// them.
	f.Add(uint8(2), []byte{
		opPlace, 3, opPlace, 3, opPlace, 3, opPlace, 2,
		opReset, 0, opPlace, 1, opPlaceExisting, 2, opPlace, 2, opPlace, 0,
	})
	// Runs down the sizes, each leaving the packed state another way: a
	// size the fill is not aligned to, Vacate, Block and Unblock.
	f.Add(uint8(2), []byte{
		opPlace, 3, opPlace, 0, opPlace, 3,
		opReset, 0, opPlace, 2, opPlace, 1, opPlace, 0, opPlace, 1, opPlace, 2,
		opReset, 0, opPlace, 3, opPlace, 2, opVacate, 0, opPlace, 2, opPlace, 3,
		opReset, 0, opPlace, 1, opBlock, 7, opPlace, 1, opUnblock, 0, opPlace, 0, opPlace, 3,
	})
	// A reset with a failed leaf stays on first fit.
	f.Add(uint8(2), []byte{
		opBlock, 2, opPlace, 0, opReset, 0, opPlace, 1, opPlace, 0, opPlace, 2,
		opUnblock, 0, opReset, 0, opPlace, 0, opPlace, 2,
	})
	f.Fuzz(func(t *testing.T, levels uint8, ops []byte) {
		m := tree.MustNew(1 << (levels%5 + 1))
		o := newListOracle(t, m)
		ops = ops[:min(len(ops), 512)]
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch op := ops[i]; {
			case op == opReset:
				o.reset()
			case op == opVacate && len(o.live) > 0:
				o.vacate(arg % len(o.live))
			case op == opBlock:
				o.block(m.LeafOf(arg % m.N()))
			case op == opUnblock && len(o.blocked) > 0:
				o.unblock(arg % len(o.blocked))
			case op == opPlaceExisting:
				o.placeExisting(1 << (arg % (m.Levels() + 1)))
			case op >= opPlace:
				o.place(1 << (arg % (m.Levels() + 1)))
			}
			o.check()
		}
	})
}
