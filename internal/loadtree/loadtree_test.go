package loadtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"partalloc/internal/tree"
)

func TestEmpty(t *testing.T) {
	lt := New(tree.MustNew(8))
	if lt.MaxLoad() != 0 || lt.Active() != 0 || lt.CumulativeSize() != 0 {
		t.Fatal("empty tree not empty")
	}
	for p := 0; p < 8; p++ {
		if lt.PELoad(p) != 0 {
			t.Fatalf("PE %d load nonzero", p)
		}
	}
	v, load := lt.LeftmostMinLoad(2)
	if v != 4 || load != 0 {
		t.Fatalf("LeftmostMinLoad(2) = %d,%d; want 4,0", v, load)
	}
}

func TestPlaceRemove(t *testing.T) {
	m := tree.MustNew(8)
	lt := New(m)
	lt.Place(2) // covers PEs 0..3
	lt.Place(4) // covers PEs 0..1
	lt.Place(8) // PE 0
	lt.CheckInvariants()
	wantLoads := []int{3, 2, 1, 1, 0, 0, 0, 0}
	for p, w := range wantLoads {
		if got := lt.PELoad(p); got != w {
			t.Errorf("PELoad(%d) = %d, want %d", p, got, w)
		}
	}
	if lt.MaxLoad() != 3 {
		t.Errorf("MaxLoad = %d, want 3", lt.MaxLoad())
	}
	if lt.CumulativeSize() != 4+2+1 {
		t.Errorf("CumulativeSize = %d, want 7", lt.CumulativeSize())
	}
	if got := lt.SubmachineLoad(4); got != 3 {
		t.Errorf("SubmachineLoad(4) = %d, want 3", got)
	}
	if got := lt.SubmachineLoad(5); got != 1 {
		t.Errorf("SubmachineLoad(5) = %d, want 1", got)
	}
	if got := lt.SubmachineLoad(3); got != 0 {
		t.Errorf("SubmachineLoad(3) = %d, want 0", got)
	}
	lt.Remove(2)
	lt.CheckInvariants()
	if lt.MaxLoad() != 2 || lt.Active() != 2 {
		t.Errorf("after remove: max=%d active=%d", lt.MaxLoad(), lt.Active())
	}
}

func TestRemovePanicsWhenAbsent(t *testing.T) {
	lt := New(tree.MustNew(4))
	defer func() {
		if recover() == nil {
			t.Error("Remove of absent task did not panic")
		}
	}()
	lt.Remove(2)
}

func TestLeftmostMinLoadTieBreak(t *testing.T) {
	m := tree.MustNew(8)
	lt := New(m)
	// All size-2 submachines idle: leftmost is node 4.
	if v, _ := lt.LeftmostMinLoad(2); v != 4 {
		t.Fatalf("want leftmost node 4, got %d", v)
	}
	lt.Place(4)
	// Nodes 5,6,7 tie at 0; leftmost is 5.
	if v, load := lt.LeftmostMinLoad(2); v != 5 || load != 0 {
		t.Fatalf("want 5,0; got %d,%d", v, load)
	}
	lt.Place(5)
	lt.Place(6)
	lt.Place(7)
	// All at 1; leftmost again 4.
	if v, load := lt.LeftmostMinLoad(2); v != 4 || load != 1 {
		t.Fatalf("want 4,1; got %d,%d", v, load)
	}
	// A task on node 3 (right half) pushes 6,7 to 2.
	lt.Place(3)
	if v, load := lt.LeftmostMinLoad(2); v != 4 || load != 1 {
		t.Fatalf("want 4,1; got %d,%d", v, load)
	}
	// Load node 2 (left half) with two tasks: now right half better? left
	// submachines 4,5 at 3; right at 2; leftmost min is 6.
	lt.Place(2)
	lt.Place(2)
	if v, load := lt.LeftmostMinLoad(2); v != 6 || load != 2 {
		t.Fatalf("want 6,2; got %d,%d", v, load)
	}
}

func TestLeftmostMinLoadSizeN(t *testing.T) {
	lt := New(tree.MustNew(4))
	lt.Place(1)
	v, load := lt.LeftmostMinLoad(4)
	if v != 1 || load != 1 {
		t.Fatalf("got %d,%d", v, load)
	}
}

// Reference implementation: brute-force loads via PE arrays.
type brute struct {
	m     *tree.Machine
	tasks []tree.Node
}

func (b *brute) loads() []int {
	out := make([]int, b.m.N())
	for _, v := range b.tasks {
		lo, hi := b.m.PERange(v)
		for p := lo; p < hi; p++ {
			out[p]++
		}
	}
	return out
}

func (b *brute) subLoad(v tree.Node) int {
	loads := b.loads()
	lo, hi := b.m.PERange(v)
	max := 0
	for p := lo; p < hi; p++ {
		if loads[p] > max {
			max = loads[p]
		}
	}
	return max
}

func (b *brute) leftmostMin(size int) (tree.Node, int) {
	best, bestLoad := tree.Node(0), 1<<30
	for _, v := range b.m.Submachines(size) {
		if l := b.subLoad(v); l < bestLoad {
			best, bestLoad = v, l
		}
	}
	return best, bestLoad
}

func TestAgainstBruteForceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		levels := 1 + rng.Intn(6)
		m := tree.MustNew(1 << levels)
		lt := New(m)
		b := &brute{m: m}
		for step := 0; step < 200; step++ {
			if len(b.tasks) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(b.tasks))
				v := b.tasks[i]
				b.tasks[i] = b.tasks[len(b.tasks)-1]
				b.tasks = b.tasks[:len(b.tasks)-1]
				lt.Remove(v)
			} else {
				size := 1 << rng.Intn(levels+1)
				k := m.NumSubmachines(size)
				v := m.SubmachineAt(size, rng.Intn(k))
				b.tasks = append(b.tasks, v)
				lt.Place(v)
			}
			lt.CheckInvariants()
			wantLoads := b.loads()
			gotLoads := lt.Loads()
			for p := range wantLoads {
				if wantLoads[p] != gotLoads[p] {
					t.Fatalf("trial %d step %d: PE %d load %d want %d",
						trial, step, p, gotLoads[p], wantLoads[p])
				}
				if lt.PELoad(p) != wantLoads[p] {
					t.Fatalf("PELoad(%d) mismatch", p)
				}
			}
			// Max load.
			wantMax := 0
			for _, l := range wantLoads {
				if l > wantMax {
					wantMax = l
				}
			}
			if lt.MaxLoad() != wantMax {
				t.Fatalf("MaxLoad = %d, want %d", lt.MaxLoad(), wantMax)
			}
			// Submachine loads and leftmost-min for every size.
			for s := 1; s <= m.N(); s *= 2 {
				for _, v := range m.Submachines(s) {
					if lt.SubmachineLoad(v) != b.subLoad(v) {
						t.Fatalf("SubmachineLoad(%d) = %d, want %d",
							v, lt.SubmachineLoad(v), b.subLoad(v))
					}
				}
				gv, gl := lt.LeftmostMinLoad(s)
				wv, wl := b.leftmostMin(s)
				if gv != wv || gl != wl {
					t.Fatalf("LeftmostMinLoad(%d) = %d,%d; want %d,%d", s, gv, gl, wv, wl)
				}
			}
			// Cumulative size.
			var want int64
			for _, v := range b.tasks {
				want += int64(m.Size(v))
			}
			if lt.CumulativeSize() != want {
				t.Fatalf("CumulativeSize = %d, want %d", lt.CumulativeSize(), want)
			}
		}
	}
}

// Property: placing then removing restores all observable state.
func TestPlaceRemoveInverseProperty(t *testing.T) {
	m := tree.MustNew(32)
	lt := New(m)
	// Background tasks.
	lt.Place(3)
	lt.Place(17)
	before := lt.Loads()
	f := func(raw uint16) bool {
		v := tree.Node(int(raw)%m.NumNodes() + 1)
		lt.Place(v)
		lt.Remove(v)
		after := lt.Loads()
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// BenchmarkPlaceRemove times an eager Place and Remove at N=16384. On
// the empty tree every update walks the whole root path; loaded holds
// 2000 background tasks, so a walk can stop at the first ancestor it
// leaves unchanged. loaded/search also holds the search table.
func BenchmarkPlaceRemove(b *testing.B) {
	for _, c := range []struct {
		name       string
		background int
		search     bool
	}{{"empty", 0, false}, {"loaded", 2000, false}, {"loaded/search", 2000, true}} {
		b.Run(c.name, func(b *testing.B) {
			m := tree.MustNew(1 << 14)
			lt := New(m)
			rng := rand.New(rand.NewSource(1))
			randomNode := func() tree.Node {
				size := 1 << rng.Intn(10)
				return m.SubmachineAt(size, rng.Intn(m.NumSubmachines(size)))
			}
			for i := 0; i < c.background; i++ {
				lt.Place(randomNode())
			}
			if c.search {
				lt.LeftmostMinLoad(1)
			}
			nodes := make([]tree.Node, 1024)
			for i := range nodes {
				nodes[i] = randomNode()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := nodes[i%len(nodes)]
				lt.Place(v)
				lt.Remove(v)
			}
		})
	}
}

func BenchmarkLeftmostMinLoad(b *testing.B) {
	m := tree.MustNew(1 << 14)
	lt := New(m)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		size := 1 << rng.Intn(10)
		lt.Place(m.SubmachineAt(size, rng.Intn(m.NumSubmachines(size))))
	}
	lt.LeftmostMinLoad(1) // builds the search table outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.LeftmostMinLoad(1 << (i % 10))
	}
}
