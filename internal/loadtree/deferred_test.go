package loadtree

import (
	"math/rand"
	"testing"

	"partalloc/internal/tree"
)

// TestDeferredMatchesEager drives three trees through the same random
// placement/removal stream in batches:
//
//   - eager searches from the start, so it holds the search table through
//     every eager update;
//   - lazy runs every batch deferred and searches after each one;
//   - late alternates eager and deferred batches and first searches at a
//     batch drawn from the seed. Every input also resets all three trees
//     at a drawn batch, so some inputs build late's table after a Reset
//     and others reset a tree that already holds one.
//
// After every batch lazy, and late once it has searched, must answer
// every query exactly as eager does and pass the from-scratch invariant
// check; before its first search late holds no table and must still
// agree on every load query.
func TestDeferredMatchesEager(t *testing.T) {
	const batches = 20
	inputs, resetFirst := 0, 0
	for _, n := range []int{2, 16, 128} {
		for seed := int64(0); seed < 4; seed++ {
			m := tree.MustNew(n)
			eager, lazy, late := New(m), New(m), New(m)
			eager.LeftmostMinLoad(1)
			rng := rand.New(rand.NewSource(int64(n)*10 + seed))
			first, resetAt := rng.Intn(batches), rng.Intn(batches)
			inputs++
			if resetAt < first {
				resetFirst++
			}
			var placedNodes []tree.Node

			for batch := 0; batch < batches; batch++ {
				lazy.BeginDeferred()
				if batch%2 == 1 {
					late.BeginDeferred()
				}
				for op := 0; op < 50; op++ {
					if len(placedNodes) > 0 && rng.Intn(3) == 0 {
						i := rng.Intn(len(placedNodes))
						v := placedNodes[i]
						placedNodes = append(placedNodes[:i], placedNodes[i+1:]...)
						eager.Remove(v)
						lazy.Remove(v)
						late.Remove(v)
						continue
					}
					size := 1 << rng.Intn(m.Levels()+1)
					k := m.NumSubmachines(size)
					v := m.SubmachineAt(size, rng.Intn(k))
					placedNodes = append(placedNodes, v)
					eager.Place(v)
					lazy.Place(v)
					late.Place(v)
				}
				if batch == resetAt {
					eager.Reset()
					lazy.Reset()
					late.Reset()
					placedNodes = placedNodes[:0]
				}
				// Queries mid-batch must flush transparently.
				if batch%3 == 0 {
					if got, want := lazy.MaxLoad(), eager.MaxLoad(); got != want {
						t.Fatalf("n=%d seed %d batch %d mid-batch MaxLoad = %d, eager %d", n, seed, batch, got, want)
					}
				}
				lazy.EndDeferred()
				late.EndDeferred()

				searched := []*Tree{lazy}
				if batch >= first {
					searched = append(searched, late)
				} else if late.bestAt != nil || late.best != nil {
					t.Fatalf("n=%d seed %d batch %d: late holds a search table before its first search", n, seed, batch)
				}
				for _, lt := range []*Tree{lazy, late} {
					if got, want := lt.MaxLoad(), eager.MaxLoad(); got != want {
						t.Fatalf("n=%d seed %d batch %d MaxLoad = %d, eager %d", n, seed, batch, got, want)
					}
					for v := 1; v <= m.NumNodes(); v++ {
						if got, want := lt.SubmachineLoad(tree.Node(v)), eager.SubmachineLoad(tree.Node(v)); got != want {
							t.Fatalf("n=%d seed %d batch %d SubmachineLoad(%d) = %d, eager %d", n, seed, batch, v, got, want)
						}
					}
					gl, el := lt.Loads(), eager.Loads()
					for p := range gl {
						if gl[p] != el[p] {
							t.Fatalf("n=%d seed %d batch %d PE %d load = %d, eager %d", n, seed, batch, p, gl[p], el[p])
						}
					}
				}
				for _, lt := range searched {
					for size := 1; size <= n; size *= 2 {
						gv, gl := lt.LeftmostMinLoad(size)
						ev, el := eager.LeftmostMinLoad(size)
						if gv != ev || gl != el {
							t.Fatalf("n=%d seed %d batch %d LeftmostMinLoad(%d) = (%d,%d), eager (%d,%d)", n, seed, batch, size, gv, gl, ev, el)
						}
					}
				}
				lazy.CheckInvariants()
				late.CheckInvariants()
			}
		}
	}
	if resetFirst == 0 || resetFirst == inputs {
		t.Fatalf("%d of %d inputs reset before late's first search; want some of each", resetFirst, inputs)
	}
}

// TestNoSearchNoTable pins the lazy search table: a tree driven only
// through Place, Remove, deferred batches, MaxLoad, SubmachineLoad and
// Reset never allocates bestAt, and its first LeftmostMinLoad, which
// builds the table, still returns the leftmost argmin.
func TestNoSearchNoTable(t *testing.T) {
	m := tree.MustNew(16)
	lt := New(m)
	b := &brute{m: m}
	place := func(v tree.Node) {
		lt.Place(v)
		b.tasks = append(b.tasks, v)
	}
	place(1)
	place(2)
	place(m.LeafOf(9))
	lt.Remove(2)
	b.tasks = []tree.Node{1, m.LeafOf(9)}
	lt.MaxLoad()
	lt.SubmachineLoad(3)
	lt.Reset()
	b.tasks = nil
	lt.BeginDeferred()
	for _, v := range []tree.Node{2, 5, 6, 13, m.LeafOf(0), m.LeafOf(8), m.LeafOf(8)} {
		place(v)
	}
	lt.MaxLoad()
	lt.EndDeferred()
	lt.SubmachineLoad(7)
	if lt.bestAt != nil || lt.best != nil {
		t.Fatal("a tree that never searched holds a search table")
	}
	lt.CheckInvariants()

	for size := 1; size <= m.N(); size *= 2 {
		gv, gl := lt.LeftmostMinLoad(size)
		wv, wl := b.leftmostMin(size)
		if gv != wv || gl != wl {
			t.Errorf("LeftmostMinLoad(%d) = %d,%d; want %d,%d", size, gv, gl, wv, wl)
		}
	}
	if lt.bestAt == nil {
		t.Fatal("LeftmostMinLoad left no search table behind")
	}
	lt.CheckInvariants()
}

// TestDeferredCoverQueriesSkipFlush checks that cover-only queries answer
// correctly during a deferred batch without forcing a rebuild.
func TestDeferredCoverQueriesSkipFlush(t *testing.T) {
	m := tree.MustNew(8)
	lt := New(m)
	lt.BeginDeferred()
	lt.Place(tree.Node(1)) // whole machine
	lt.Place(m.LeafOf(3))
	if got := lt.PELoad(3); got != 2 {
		t.Errorf("PELoad(3) = %d, want 2", got)
	}
	if got := lt.CumulativeSize(); got != 9 {
		t.Errorf("CumulativeSize = %d, want 9", got)
	}
	if !lt.Deferred() {
		t.Error("tree left deferred mode without EndDeferred")
	}
	if lt.dirty == false {
		t.Error("cover-only queries should not have flushed the batch")
	}
	lt.EndDeferred()
	if got := lt.MaxLoad(); got != 2 {
		t.Errorf("MaxLoad = %d, want 2", got)
	}
}

// BenchmarkDeferredBatch times one deferred batch of 256 updates (128
// placements, then their 128 removals) and its EndDeferred on an N=1024
// tree holding 256 background tasks: the shape of an A_Rand tenant's
// batch. nosearch is a tree that never searched, search one that holds
// the search table, so the difference is what the table costs a batch.
func BenchmarkDeferredBatch(b *testing.B) {
	for _, search := range []bool{true, false} {
		name := "nosearch"
		if search {
			name = "search"
		}
		b.Run(name, func(b *testing.B) {
			m := tree.MustNew(1024)
			lt := New(m)
			rng := rand.New(rand.NewSource(1))
			randomNode := func() tree.Node {
				size := 1 << rng.Intn(m.Levels()+1)
				return m.SubmachineAt(size, rng.Intn(m.NumSubmachines(size)))
			}
			for i := 0; i < 256; i++ {
				lt.Place(randomNode())
			}
			nodes := make([]tree.Node, 128)
			for i := range nodes {
				nodes[i] = randomNode()
			}
			if search {
				lt.LeftmostMinLoad(1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lt.BeginDeferred()
				for _, v := range nodes {
					lt.Place(v)
				}
				for _, v := range nodes {
					lt.Remove(v)
				}
				lt.EndDeferred()
			}
		})
	}
}
