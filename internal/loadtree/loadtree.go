// Package loadtree maintains per-PE thread loads on a tree machine under
// task placement and removal, and answers the queries the paper's on-line
// algorithms need:
//
//   - the load of any submachine (the maximum load of its PEs, which is what
//     algorithm A_G minimizes over candidate submachines), and
//   - the leftmost minimum-load submachine of a given size (A_G's placement
//     rule, including the paper's leftmost tie-break).
//
// A task assigned to the submachine rooted at v adds one thread to every PE
// under v. Rather than updating all those leaves, the tree stores at each
// node a cover count — the number of active tasks assigned exactly there —
// and aggregates maxBelow(v) = cover(v) + max over children. The load of a
// PE is then the sum of cover counts along its root path, and the load of a
// submachine v is maxBelow(v) plus the cover counts of v's proper ancestors.
// Place and Remove are O(log N); submachine-load queries are O(log N);
// the leftmost-min search is O(N/size) via depth-first descent.
package loadtree

import (
	"fmt"
	"math/bits"

	"partalloc/internal/tree"
)

// Tree tracks loads for one machine. It is not safe for concurrent use;
// simulations drive one Tree per allocator from a single goroutine.
type Tree struct {
	m        *tree.Machine
	levels   int
	cover    []int32 // cover[v]: tasks assigned exactly at node v
	maxBelow []int32 // maxBelow[v]: max PE load within v's subtree, excluding ancestor covers
	// bestAt[v][k] is the minimum, over depth-(depth(v)+k) descendants u of
	// v, of (covers strictly between v and u) + maxBelow(u) — i.e. the best
	// submachine load at that granularity within v, excluding v's own cover
	// and everything above. bestAt[v][0] = maxBelow(v). It is the aggregate
	// that makes LeftmostMinLoad O(log N) at every size even under
	// adversarial fragmentation (where min-leaf pruning degrades to a full
	// level scan).
	bestAt [][]int32
	best   []int32 // backing array every bestAt row is carved from
	active int     // number of placed tasks
	// deferred aggregation (see BeginDeferred): while set, Place/Remove
	// update only cover counts and the aggregates are rebuilt lazily, in
	// one bottom-up pass, the next time a query needs them.
	deferred bool
	dirty    bool
}

// New creates an all-idle load tree over machine m.
func New(m *tree.Machine) *Tree {
	nn := m.NumNodes() + 1 // 1-indexed
	t := &Tree{
		m:        m,
		levels:   m.Levels(),
		cover:    make([]int32, nn),
		maxBelow: make([]int32, nn),
		bestAt:   make([][]int32, nn),
	}
	// Carve every bestAt row out of one flat backing array: one
	// allocation instead of one per node, and one clear in Reset.
	total := 0
	for v := 1; v <= m.NumNodes(); v++ {
		total += t.levels - mathxLog2Floor(v) + 1
	}
	t.best = make([]int32, total)
	off := 0
	for v := 1; v <= m.NumNodes(); v++ {
		l := t.levels - mathxLog2Floor(v) + 1
		t.bestAt[v] = t.best[off : off+l : off+l]
		off += l
	}
	return t
}

// Reset removes every task in place, keeping the tree's storage and its
// deferred mode: procedure A_R rebuilds loads into the same tree, even in
// the middle of a batch.
func (t *Tree) Reset() {
	clear(t.cover)
	clear(t.maxBelow)
	clear(t.best)
	t.active = 0
	t.dirty = false
}

// mathxLog2Floor is floor(log2(v)) for v ≥ 1.
func mathxLog2Floor(v int) int {
	return bits.Len(uint(v)) - 1
}

// Machine returns the underlying machine description.
func (t *Tree) Machine() *tree.Machine { return t.m }

// LevelWidth returns the number of distinct physical switch blocks at
// depth d of the machine's decomposition (2^d on a plain binary machine;
// coarser on non-binary physical hierarchies like the fat tree, whose
// virtual depths inherit the enclosing physical level's width). Load
// bookkeeping is identical either way — the metadata exists so host-aware
// consumers (invariant audits, capacity reporting) can distinguish
// physical capacity boundaries from virtual binary splits.
func (t *Tree) LevelWidth(d int) int { return t.m.LevelWidth(d) }

// Active returns the number of currently placed tasks.
func (t *Tree) Active() int { return t.active }

// Place records one task assigned to the submachine rooted at v.
func (t *Tree) Place(v tree.Node) {
	t.add(v, 1)
	t.active++
}

// Remove erases one previously placed task from the submachine rooted at v.
// It panics if no task is assigned exactly at v.
func (t *Tree) Remove(v tree.Node) {
	if t.cover[v] <= 0 {
		panic(fmt.Sprintf("loadtree: Remove(%d) with no task assigned there", v))
	}
	t.add(v, -1)
	t.active--
}

func (t *Tree) add(v tree.Node, delta int32) {
	if !t.m.Valid(v) {
		panic(fmt.Sprintf("loadtree: invalid node %d", v))
	}
	t.cover[v] += delta
	if t.deferred {
		t.dirty = true
		return
	}
	for u := v; u >= 1; u /= 2 {
		t.refreshMaxBelow(u)
		t.refreshBestAt(tree.Node(u))
	}
}

// BeginDeferred switches the tree into deferred-aggregation mode: Place
// and Remove update only the O(1) cover counts, and maxBelow and
// bestAt are rebuilt in a single O(N) bottom-up pass the next time an
// aggregate query (MaxLoad, SubmachineLoad, LeftmostMinLoad,
// CheckInvariants) needs them. Cover-only queries (PELoad, Loads,
// CumulativeSize) never force a rebuild.
//
// This is the batching lever the copies-based allocators (A_B, A_M, lazy)
// and A_Rand exploit: their placement decisions never read the aggregates,
// so a batch of k events costs O(k + N) instead of O(k·log²N). Algorithms
// that query loads on every arrival (A_G) gain nothing and should stay
// eager. Final state is bit-identical either way.
func (t *Tree) BeginDeferred() { t.deferred = true }

// EndDeferred rebuilds any pending aggregates and returns the tree to
// eager per-update maintenance.
func (t *Tree) EndDeferred() {
	t.flush()
	t.deferred = false
}

// Deferred reports whether the tree is in deferred-aggregation mode.
func (t *Tree) Deferred() bool { return t.deferred }

// flush rebuilds every aggregate bottom-up if cover changed since the last
// rebuild. Children have larger heap indexes than parents, so a single
// descending scan sees each node's children already refreshed.
func (t *Tree) flush() {
	if !t.dirty {
		return
	}
	for v := t.m.NumNodes(); v >= 1; v-- {
		u := tree.Node(v)
		t.refreshMaxBelow(u)
		t.refreshBestAt(u)
	}
	t.dirty = false
}

// refreshMaxBelow recomputes maxBelow[u] from u's (already current)
// children.
func (t *Tree) refreshMaxBelow(u tree.Node) {
	mb := t.cover[u]
	if !t.m.IsLeaf(u) {
		mb += max(t.maxBelow[2*u], t.maxBelow[2*u+1])
	}
	t.maxBelow[u] = mb
}

// refreshBestAt recomputes bestAt[u] from u's (already current) children.
func (t *Tree) refreshBestAt(u tree.Node) {
	b := t.bestAt[u]
	b[0] = t.maxBelow[u]
	if t.m.IsLeaf(u) {
		return
	}
	l, r := 2*u, 2*u+1
	bl, br := t.bestAt[l], t.bestAt[r]
	for k := 1; k < len(b); k++ {
		lv, rv := bl[k-1], br[k-1]
		if k-1 >= 1 {
			lv += t.cover[l]
			rv += t.cover[r]
		}
		if rv < lv {
			lv = rv
		}
		b[k] = lv
	}
}

// MaxLoad returns the machine-wide maximum PE load (the paper's
// L_A(sigma; tau) at the current instant).
func (t *Tree) MaxLoad() int {
	t.flush()
	return int(t.maxBelow[1])
}

// PELoad returns the load of PE p: the number of active tasks whose
// submachine covers p.
func (t *Tree) PELoad(p int) int {
	var sum int32
	for u := t.m.LeafOf(p); u >= 1; u /= 2 {
		sum += t.cover[u]
	}
	return int(sum)
}

// SubmachineLoad returns the load of the submachine rooted at v: the
// maximum load among its PEs.
func (t *Tree) SubmachineLoad(v tree.Node) int {
	t.flush()
	sum := t.maxBelow[v]
	t.m.Ancestors(v, func(u tree.Node) bool {
		sum += t.cover[u]
		return true
	})
	return int(sum)
}

// CumulativeSize returns the total size (PE count) of all active tasks —
// sum over tasks of their submachine sizes.
func (t *Tree) CumulativeSize() int64 {
	var s int64
	for v := 1; v <= t.m.NumNodes(); v++ {
		s += int64(t.cover[v]) * int64(t.m.Size(tree.Node(v)))
	}
	return s
}

// LeftmostMinLoad returns the leftmost submachine of the given size with
// the smallest load, and that load. This is A_G's placement rule.
//
// The bestAt aggregate answers it in O(log N): the minimal load at depth d
// is cover[root] + bestAt[root][d] (the root's cover burdens every
// candidate), and the leftmost argmin is found by descending toward the
// child whose contribution attains the minimum, preferring the left child
// on ties.
func (t *Tree) LeftmostMinLoad(size int) (tree.Node, int) {
	t.flush()
	d := t.m.DepthForSize(size)
	load := t.bestAt[1][d]
	if d >= 1 {
		load += t.cover[1]
	}
	v := tree.Node(1)
	for k := d; k >= 1; k-- {
		l, r := 2*v, 2*v+1
		lv, rv := t.bestAt[l][k-1], t.bestAt[r][k-1]
		if k-1 >= 1 {
			lv += t.cover[l]
			rv += t.cover[r]
		}
		if lv <= rv {
			v = l
		} else {
			v = r
		}
	}
	return v, int(load)
}

// Loads returns a snapshot of all PE loads; for metrics and tests.
func (t *Tree) Loads() []int {
	n := t.m.N()
	out := make([]int, n)
	t.fill(1, 0, out)
	return out
}

func (t *Tree) fill(v tree.Node, pathSum int32, out []int) {
	pathSum += t.cover[v]
	if t.m.IsLeaf(v) {
		out[t.m.PEOf(v)] = int(pathSum)
		return
	}
	t.fill(2*v, pathSum, out)
	t.fill(2*v+1, pathSum, out)
}

// CheckInvariants recomputes the aggregate from scratch and panics on any
// mismatch; used by tests and the simulator's paranoid mode. Pending
// deferred updates are flushed first — they are bookkeeping debt, not an
// inconsistency.
func (t *Tree) CheckInvariants() {
	t.flush()
	var rec func(v tree.Node) int32
	rec = func(v tree.Node) int32 {
		mb := t.cover[v]
		if t.cover[v] < 0 {
			panic(fmt.Sprintf("loadtree: negative cover at node %d", v))
		}
		if !t.m.IsLeaf(v) {
			mb += max(rec(t.m.Left(v)), rec(t.m.Right(v)))
		}
		if mb != t.maxBelow[v] {
			panic(fmt.Sprintf("loadtree: maxBelow[%d] = %d, recomputed %d", v, t.maxBelow[v], mb))
		}
		return mb
	}
	rec(1)
	// bestAt: recompute each entry by brute force over the depth level.
	var bruteBest func(v tree.Node, k int) int32
	bruteBest = func(v tree.Node, k int) int32 {
		if k == 0 {
			return t.maxBelow[v]
		}
		l, r := 2*v, 2*v+1
		lv, rv := bruteBest(l, k-1), bruteBest(r, k-1)
		if k-1 >= 1 {
			lv += t.cover[l]
			rv += t.cover[r]
		}
		if rv < lv {
			lv = rv
		}
		return lv
	}
	for v := 1; v <= t.m.NumNodes(); v++ {
		for k := range t.bestAt[v] {
			if got, want := t.bestAt[v][k], bruteBest(tree.Node(v), k); got != want {
				panic(fmt.Sprintf("loadtree: bestAt[%d][%d] = %d, recomputed %d", v, k, got, want))
			}
		}
	}
}
