// Package copies implements the paper's "copies of T" abstraction used by
// the basic algorithm A_B, the reallocation procedure A_R, and therefore
// the 0-reallocation algorithm A_C and the d-reallocation algorithm A_M
// (§3, §4.1).
//
// The allocator conceptually maintains a list of identical copies of the
// machine T, ordered by creation time. Within a copy each PE may be
// assigned to at most one task; a submachine of a copy is vacant if none of
// its PEs is assigned. Each copy is emulated as a distinct thread layer on
// the real machine, so the real load of a PE is the number of copies in
// which it is occupied, and the machine's maximum load is at most the
// number of copies.
//
// A Copy is a buddy allocator over the machine tree: it tracks, per node,
// the number of occupied PEs in the subtree and the size of the largest
// vacant submachine in the subtree, giving O(log N) leftmost-vacant search
// and O(log N) occupy/vacate.
//
// A reallocation reruns A_R into the same List: Reset keeps the dropped
// copies, and later placements empty and reuse them before creating new
// ones. A list therefore keeps the memory of its peak copy count, and
// once warm a reallocation allocates nothing.
//
// A_R places in decreasing size order, and Lemma 1's argument shows where
// each task lands on a machine with no failed PE: the copies fill as one
// packed prefix, every PE before a fill cursor occupied and every PE
// after it vacant, and the cursor stays aligned to each size it meets. A
// List keeps that state from Reset on while it lasts and answers Place
// from the cursor, with no search over copies or within one.
package copies

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"partalloc/internal/errs"
	"partalloc/internal/tree"
)

// Copy is one copy of the machine: a buddy allocator whose units are
// complete subtrees. The zero value is unusable; use NewCopy.
type Copy struct {
	m         *tree.Machine
	occupied  []int32 // occupied[v]: count of occupied PEs in v's subtree
	maxVacant []int32 // maxVacant[v]: PE count of the largest vacant submachine within v's subtree
	assigned  []bool  // assigned[v]: a task is assigned exactly at v
	tasks     int     // number of assigned tasks
	// blocked[v] counts blocked (failed) PEs in v's subtree; a blocked PE
	// is not occupied by any task but is excluded from vacancy, so
	// FindVacant never returns a submachine covering it. Allocated lazily
	// on the first Block so fault-free runs pay nothing.
	blocked []int32
}

// NewCopy returns a fresh, fully vacant copy of machine m.
func NewCopy(m *tree.Machine) *Copy {
	nn := m.NumNodes() + 1
	c := &Copy{
		m:         m,
		occupied:  make([]int32, nn),
		maxVacant: make([]int32, nn),
		assigned:  make([]bool, nn),
	}
	// Depth-d nodes occupy heap indices [2^d, 2^(d+1)) and all have size
	// N/2^d; filling per level avoids a Size call per node.
	for d, size := 0, int32(m.N()); size >= 1; d, size = d+1, size/2 {
		for v := 1 << d; v < min(1<<(d+1), nn); v++ {
			c.maxVacant[v] = size
		}
	}
	return c
}

// reset vacates every submachine and unblocks every leaf in place;
// vacant is the maxVacant of a fresh copy.
func (c *Copy) reset(vacant []int32) {
	clear(c.occupied)
	clear(c.assigned)
	clear(c.blocked)
	copy(c.maxVacant, vacant)
	c.tasks = 0
}

// Machine returns the machine this copy mirrors.
func (c *Copy) Machine() *tree.Machine { return c.m }

// Tasks returns the number of tasks currently assigned in this copy.
func (c *Copy) Tasks() int { return c.tasks }

// Empty reports whether no task is assigned in this copy.
func (c *Copy) Empty() bool { return c.tasks == 0 }

// OccupiedPEs returns the number of occupied PEs in the whole copy.
func (c *Copy) OccupiedPEs() int { return int(c.occupied[1]) }

// Vacant reports whether the submachine rooted at v is vacant (no PE under
// v is assigned to any task).
func (c *Copy) Vacant(v tree.Node) bool { return c.occupied[v] == 0 }

// Assigned reports whether a task is assigned exactly at v.
func (c *Copy) Assigned(v tree.Node) bool { return c.assigned[v] }

// FindVacant returns the leftmost vacant submachine of exactly the given
// size (a power of two ≤ N), or ok=false if none exists. O(log N): descend
// left-first, pruning subtrees whose maxVacant is too small.
func (c *Copy) FindVacant(size int) (v tree.Node, ok bool) {
	d := c.m.DepthForSize(size) // validates size
	if c.maxVacant[1] < int32(size) {
		return 0, false
	}
	u := tree.Node(1)
	for depth := 0; depth < d; depth++ {
		l, r := c.m.Left(u), c.m.Right(u)
		if c.maxVacant[l] >= int32(size) {
			u = l
		} else {
			u = r
		}
	}
	return u, true
}

// blockedAt returns the blocked-PE count of v's subtree (0 when no PE was
// ever blocked in this copy).
func (c *Copy) blockedAt(v tree.Node) int32 {
	if c.blocked == nil {
		return 0
	}
	return c.blocked[v]
}

// Blocked reports whether v's subtree contains a blocked (failed) PE.
func (c *Copy) Blocked(v tree.Node) bool { return c.blockedAt(v) > 0 }

// Block marks the leaf v as failed: it stays unassigned but is excluded
// from vacancy, so no future placement covers it. The leaf must not lie
// inside an assigned submachine — the caller migrates affected tasks away
// first.
func (c *Copy) Block(v tree.Node) {
	if !c.m.IsLeaf(v) {
		panic(fmt.Sprintf("copies: Block(%d) of non-leaf node", v))
	}
	if c.blockedAt(v) != 0 {
		panic(fmt.Sprintf("copies: Block(%d) of already-blocked leaf", v))
	}
	if c.occupied[v] != 0 {
		panic(fmt.Sprintf("copies: Block(%d) of occupied leaf", v))
	}
	c.m.Ancestors(v, func(u tree.Node) bool {
		if c.assigned[u] {
			panic(fmt.Sprintf("copies: Block(%d) inside occupied submachine %d", v, u))
		}
		return true
	})
	if c.blocked == nil {
		c.blocked = make([]int32, len(c.occupied))
	}
	c.blocked[v] = 1
	c.maxVacant[v] = 0
	for u := c.m.Parent(v); u >= 1; u = c.m.Parent(u) {
		c.blocked[u]++
		c.recomputeVacant(u)
		if u == 1 {
			break
		}
	}
}

// Unblock reverses Block on a recovered leaf.
func (c *Copy) Unblock(v tree.Node) {
	if !c.m.IsLeaf(v) {
		panic(fmt.Sprintf("copies: Unblock(%d) of non-leaf node", v))
	}
	if c.blockedAt(v) == 0 {
		panic(fmt.Sprintf("copies: Unblock(%d) of non-blocked leaf", v))
	}
	c.blocked[v] = 0
	c.maxVacant[v] = 1
	for u := c.m.Parent(v); u >= 1; u = c.m.Parent(u) {
		c.blocked[u]--
		c.recomputeVacant(u)
		if u == 1 {
			break
		}
	}
}

// Occupy assigns a task to the submachine rooted at v, which must be
// vacant. All PEs under v become occupied.
func (c *Copy) Occupy(v tree.Node) {
	if !c.m.Valid(v) {
		panic(fmt.Sprintf("copies: invalid node %d", v))
	}
	if c.occupied[v] != 0 {
		panic(fmt.Sprintf("copies: Occupy(%d) of non-vacant submachine", v))
	}
	if c.blockedAt(v) != 0 {
		panic(fmt.Sprintf("copies: Occupy(%d) of submachine with a blocked (failed) PE", v))
	}
	c.m.Ancestors(v, func(u tree.Node) bool {
		if c.assigned[u] {
			panic(fmt.Sprintf("copies: Occupy(%d) inside occupied submachine %d", v, u))
		}
		return true
	})
	size := int32(c.m.Size(v))
	c.assigned[v] = true
	c.tasks++
	c.occupied[v] = size
	c.maxVacant[v] = 0
	for u := c.m.Parent(v); u >= 1; u = c.m.Parent(u) {
		c.occupied[u] += size
		c.recomputeVacant(u)
		if u == 1 {
			break
		}
	}
}

// Vacate releases the task assigned exactly at v.
func (c *Copy) Vacate(v tree.Node) {
	if !c.assigned[v] {
		panic(fmt.Sprintf("copies: Vacate(%d) with no task assigned there", v))
	}
	size := int32(c.m.Size(v))
	c.assigned[v] = false
	c.tasks--
	c.occupied[v] = 0
	c.maxVacant[v] = size
	for u := c.m.Parent(v); u >= 1; u = c.m.Parent(u) {
		c.occupied[u] -= size
		c.recomputeVacant(u)
		if u == 1 {
			break
		}
	}
}

func (c *Copy) recomputeVacant(u tree.Node) {
	if c.occupied[u] == 0 && c.blockedAt(u) == 0 {
		c.maxVacant[u] = int32(c.m.Size(u))
		return
	}
	l, r := c.maxVacant[c.m.Left(u)], c.maxVacant[c.m.Right(u)]
	if l < r {
		l = r
	}
	c.maxVacant[u] = l
}

// MaximalVacant returns the roots of all maximal vacant submachines — the
// vacant submachines not properly contained in any other vacant submachine
// — in leftmost order. Used to check the paper's Claim 1 of Lemma 2
// (A_B never creates two maximal vacant submachines of the same size).
func (c *Copy) MaximalVacant() []tree.Node {
	var out []tree.Node
	var walk func(v tree.Node)
	walk = func(v tree.Node) {
		if c.occupied[v] == 0 && c.blockedAt(v) == 0 {
			out = append(out, v)
			return
		}
		if c.m.IsLeaf(v) {
			return
		}
		walk(c.m.Left(v))
		walk(c.m.Right(v))
	}
	if c.occupied[1] == 0 && c.blockedAt(1) == 0 {
		// Whole copy vacant: the root is the single maximal vacant submachine.
		return []tree.Node{1}
	}
	walk(1)
	return out
}

// AssignedNodes returns the nodes with tasks assigned, leftmost-first by
// heap index order per depth via simple in-order scan of all nodes.
func (c *Copy) AssignedNodes() []tree.Node {
	var out []tree.Node
	for v := 1; v <= c.m.NumNodes(); v++ {
		if c.assigned[v] {
			out = append(out, tree.Node(v))
		}
	}
	return out
}

// CheckInvariants recomputes aggregates from scratch and panics on
// mismatch; used in tests.
func (c *Copy) CheckInvariants() {
	var rec func(v tree.Node) (occ, blk, vac int32)
	rec = func(v tree.Node) (int32, int32, int32) {
		var occ, blk, vac int32
		if c.assigned[v] {
			occ = int32(c.m.Size(v))
			vac = 0
		} else if c.m.IsLeaf(v) {
			occ = 0
			blk = c.blockedAt(v)
			if blk == 0 {
				vac = 1
			}
		} else {
			lo, lb, lv := rec(c.m.Left(v))
			ro, rb, rv := rec(c.m.Right(v))
			occ = lo + ro
			blk = lb + rb
			if occ == 0 && blk == 0 {
				vac = int32(c.m.Size(v))
			} else {
				vac = lv
				if rv > vac {
					vac = rv
				}
			}
		}
		if occ != c.occupied[v] {
			panic(fmt.Sprintf("copies: occupied[%d]=%d recomputed %d", v, c.occupied[v], occ))
		}
		if blk != c.blockedAt(v) {
			panic(fmt.Sprintf("copies: blocked[%d]=%d recomputed %d", v, c.blockedAt(v), blk))
		}
		if vac != c.maxVacant[v] {
			panic(fmt.Sprintf("copies: maxVacant[%d]=%d recomputed %d", v, c.maxVacant[v], vac))
		}
		return occ, blk, vac
	}
	rec(1)
	// Nested assignment check: no assigned node may have an assigned
	// ancestor (a task inside a region occupied by another task).
	for v := 2; v <= c.m.NumNodes(); v++ {
		if !c.assigned[v] {
			continue
		}
		c.m.Ancestors(tree.Node(v), func(u tree.Node) bool {
			if c.assigned[u] {
				panic(fmt.Sprintf("copies: nested assignment %d under %d", v, u))
			}
			return true
		})
	}
}

// List is an ordered collection of copies, searched in creation order as
// A_B and A_R require. Use NewList.
//
// A List is packed from a Reset with no failed leaf until the first
// Vacate, Block, HasVacant, OccupyAt, Grow, or Place of a size that does
// not divide the fill; it has no failed leaf to Unblock. While packed,
// the copies hold one packed prefix of fill PEs: copies before copy
// ⌊fill/N⌋ are full, that copy holds exactly its first fill mod N PEs,
// and no later copy exists. Every size placed so far divides fill, and
// so does any size no larger than the last, which is why A_R's
// decreasing order keeps the list packed. First fit then lands at the
// cursor, so a packed Place takes copy ⌊fill/N⌋ and node
// SubmachineAt(size, (fill mod N)/size) without a search; Copy.Occupy
// still validates the node. Leaving the state sets the first-fit hints,
// which packed placements neither read nor keep, to the cursor's copy.
type List struct {
	m      *tree.Machine
	copies []*Copy
	// blockedLeaves records the currently failed leaves, sorted by node
	// index. Every existing copy has them blocked, and copies created by
	// Place are pre-blocked before placement, so no assignment ever covers
	// a failed PE. The registry survives Reset: a rebuild after a failure
	// must still avoid the failed PEs.
	blockedLeaves []tree.Node
	// firstFit[d] is a lower bound on the index of the first copy that can
	// hold a task of depth-d size (size = N/2^d): every earlier copy is
	// known to hold no vacant submachine of that size. Occupying only
	// removes vacancies, so placements keep the bound valid; Vacate,
	// Unblock, and Reset create vacancies and rewind it. This turns A_B's
	// first-fit scan from O(copies) per arrival into amortized O(1). A
	// packed list keeps no hints (see List).
	firstFit []int
	// packed and fill are the packed-prefix state (see List): fill counts
	// the PEs placed since Reset, across copies.
	packed bool
	fill   int
	// vacant is a fresh copy's maxVacant, copied into each copy that
	// Reset dropped when newCopy hands it back.
	vacant []int32
}

// NewList returns an empty copy list for machine m.
func NewList(m *tree.Machine) *List {
	return &List{m: m, firstFit: make([]int, m.Levels()+1)}
}

// LevelWidth returns the number of distinct physical switch blocks at
// depth d of the machine's decomposition (see tree.NewDecomposition):
// first-fit packing is identical across hosts, but host-aware consumers
// use the widths to report per-physical-level capacity on non-binary
// hierarchies such as the fat tree.
func (l *List) LevelWidth(d int) int { return l.m.LevelWidth(d) }

// Len returns the number of copies ever created and still held.
func (l *List) Len() int { return len(l.copies) }

// At returns the i-th copy (creation order).
func (l *List) At(i int) *Copy { return l.copies[i] }

// Grow appends n fresh copies (with every currently failed leaf
// pre-blocked), without placing anything in them. Checkpoint restore uses
// it to recreate a list whose copy indices — including trailing empty
// copies — match the snapshotted layout exactly.
func (l *List) Grow(n int) {
	l.unpack()
	for i := 0; i < n; i++ {
		l.copies = append(l.copies, l.newCopy())
	}
}

// OccupyAt occupies submachine v in the copyIdx-th copy directly, bypassing
// the first-fit scan. Checkpoint restore uses it to replay a snapshotted
// placement verbatim; Copy.Occupy still validates vacancy, blocking, and
// nesting, so corrupt snapshots fail loudly instead of silently packing
// wrong. It ends the packed state; otherwise the first-fit hints are left
// untouched — they are lower bounds, so a conservative (zeroed) hint
// table stays behavior-identical.
func (l *List) OccupyAt(copyIdx int, v tree.Node) {
	l.unpack()
	l.copies[copyIdx].Occupy(v)
}

// NonEmpty returns the number of copies currently holding at least one
// task. Because copies are only appended, the machine's maximum real load
// is at most this number... and at most Len().
func (l *List) NonEmpty() int {
	k := 0
	for _, c := range l.copies {
		if !c.Empty() {
			k++
		}
	}
	return k
}

// Place implements the shared placement rule of A_B and A_R: search the
// copies in creation order for the first with a vacant submachine of the
// given size, creating a new copy if none has one, and occupy the leftmost
// such submachine. It returns the copy index and the node. A packed list
// whose fill the size divides answers from the fill cursor instead (see
// List); the result is the same.
func (l *List) Place(size int) (copyIdx int, v tree.Node) {
	d := l.m.DepthForSize(size)
	if l.packed {
		if l.fill&(size-1) == 0 { // size, a power of two, divides fill
			return l.placePacked(size)
		}
		l.unpack()
	}
	for i := l.firstFit[d]; i < len(l.copies); i++ {
		c := l.copies[i]
		if u, ok := c.FindVacant(size); ok {
			c.Occupy(u)
			l.firstFit[d] = i
			return i, u
		}
		l.firstFit[d] = i + 1
	}
	c := l.newCopy()
	l.copies = append(l.copies, c)
	u, ok := c.FindVacant(size)
	if !ok {
		// A fresh copy always has vacancies unless every size-`size`
		// submachine of T contains a failed PE: the machine can no longer
		// host tasks of this size at all.
		panic(fmt.Errorf("copies: no size-%d submachine avoids the %d failed PE(s): %w", size, len(l.blockedLeaves), errs.ErrMachineFull))
	}
	c.Occupy(u)
	l.firstFit[d] = len(l.copies) - 1
	return len(l.copies) - 1, u
}

// placePacked occupies the size-PE submachine at the fill cursor of a
// packed list, opening the next copy when the cursor starts one. N and
// size are powers of two, so the divisions are shifts.
func (l *List) placePacked(size int) (int, tree.Node) {
	ci := l.fill >> l.m.Levels() // ⌊fill/N⌋
	if ci == len(l.copies) {
		l.copies = append(l.copies, l.newCopy())
	}
	off := l.fill & (l.m.N() - 1) // fill mod N
	v := l.m.SubmachineAt(size, off>>bits.TrailingZeros(uint(size)))
	l.copies[ci].Occupy(v)
	l.fill += size
	return ci, v
}

// unpack ends the packed state, if the list is in it. Packed placements
// neither read nor keep the first-fit hints; every copy before the
// cursor's is full, so each hint now starts there.
func (l *List) unpack() {
	if !l.packed {
		return
	}
	l.packed = false
	for d := range l.firstFit {
		l.firstFit[d] = l.fill / l.m.N()
	}
}

// HasVacant reports whether some existing copy has a vacant submachine of
// the given size — i.e. whether Place would reuse a copy rather than
// create one. It advances the same first-fit hint Place uses.
func (l *List) HasVacant(size int) bool {
	d := l.m.DepthForSize(size)
	l.unpack()
	for i := l.firstFit[d]; i < len(l.copies); i++ {
		if _, ok := l.copies[i].FindVacant(size); ok {
			l.firstFit[d] = i
			return true
		}
		l.firstFit[d] = i + 1
	}
	return false
}

// rewind lowers every first-fit hint to at most ci after a vacancy appeared
// in copy ci.
func (l *List) rewind(ci int) {
	for d := range l.firstFit {
		if l.firstFit[d] > ci {
			l.firstFit[d] = ci
		}
	}
}

// newCopy returns an empty copy with every currently failed leaf blocked,
// handing back a copy that Reset dropped while one is left.
func (l *List) newCopy() *Copy {
	var c *Copy
	if n := len(l.copies); n < cap(l.copies) {
		c = l.copies[:n+1][n]
	}
	if c == nil {
		c = NewCopy(l.m)
		if l.vacant == nil {
			l.vacant = slices.Clone(c.maxVacant)
		}
	} else {
		c.reset(l.vacant)
	}
	for _, leaf := range l.blockedLeaves {
		c.Block(leaf)
	}
	return c
}

// Block marks the leaf as failed in every copy (current and future). The
// leaf must not be inside any assigned submachine in any copy — the
// allocator migrates affected tasks away first.
func (l *List) Block(leaf tree.Node) {
	for _, b := range l.blockedLeaves {
		if b == leaf {
			panic(fmt.Sprintf("copies: Block(%d) of already-blocked leaf", leaf))
		}
	}
	l.unpack()
	for _, c := range l.copies {
		c.Block(leaf)
	}
	l.blockedLeaves = append(l.blockedLeaves, leaf)
	sort.Slice(l.blockedLeaves, func(i, j int) bool { return l.blockedLeaves[i] < l.blockedLeaves[j] })
}

// Unblock reverses Block on a recovered leaf in every copy.
func (l *List) Unblock(leaf tree.Node) {
	idx := -1
	for i, b := range l.blockedLeaves {
		if b == leaf {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("copies: Unblock(%d) of non-blocked leaf", leaf))
	}
	for _, c := range l.copies {
		c.Unblock(leaf)
	}
	l.blockedLeaves = append(l.blockedLeaves[:idx], l.blockedLeaves[idx+1:]...)
	l.rewind(0) // recovery creates vacancies in every copy
}

// BlockedLeaves returns the currently failed leaves in node order.
func (l *List) BlockedLeaves() []tree.Node {
	return append([]tree.Node(nil), l.blockedLeaves...)
}

// Vacate releases the task at (copyIdx, v). Empty copies are retained so
// copy indices stay stable; the load metric counts per-PE occupancy, so
// retained empty copies do not distort measurements.
func (l *List) Vacate(copyIdx int, v tree.Node) {
	l.unpack()
	c := l.copies[copyIdx]
	c.Vacate(v)
	// Only sizes up to the copy's (post-merge) largest vacancy can have
	// gained a vacancy here; hints for larger sizes stay valid.
	minDepth := l.m.DepthForSize(int(c.maxVacant[1]))
	for d := minDepth; d < len(l.firstFit); d++ {
		if l.firstFit[d] > copyIdx {
			l.firstFit[d] = copyIdx
		}
	}
}

// Reset drops all copies (used when a reallocation rebuilds the layout).
// The dropped copies stay allocated for later placements to reuse. With
// no failed leaf the list is packed from here on (see List), and the
// first-fit hints wait for the state to end.
func (l *List) Reset() {
	l.copies = l.copies[:0]
	l.packed, l.fill = len(l.blockedLeaves) == 0, 0
	if !l.packed {
		l.rewind(0)
	}
}

// PELoad returns the real load of PE p: the number of copies in which p is
// occupied.
func (l *List) PELoad(p int) int {
	k := 0
	leaf := l.m.LeafOf(p)
	for _, c := range l.copies {
		// PE p is occupied iff some ancestor-or-self of its leaf is assigned.
		if c.assigned[leaf] {
			k++
			continue
		}
		occ := false
		l.m.Ancestors(leaf, func(u tree.Node) bool {
			if c.assigned[u] {
				occ = true
				return false
			}
			return true
		})
		if occ {
			k++
		}
	}
	return k
}
