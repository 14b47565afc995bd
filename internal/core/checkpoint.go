// Checkpointable state: versioned, CRC-guarded snapshot codecs for every
// allocator.
//
// The paper's central asymmetry (Lemma 2: A_R repacks the whole active
// set from scratch) means an allocator's *state* is tiny compared to its
// event *history*: the active placements, the fault set, and the d·N
// budget counters describe everything, while the journal that produced
// them grows without bound. Snapshot serializes exactly that state —
// canonical, deterministic bytes — and Restore rebuilds a live allocator
// from them, letting the engine checkpoint tenants, truncate WAL
// segments, and recover in O(tail) instead of O(history).
//
// Codec rules, in order of importance:
//
//   - Deterministic: the same logical state always yields the same bytes
//     (maps are emitted in sorted key order), so snapshot → restore →
//     snapshot is byte-identical and snapshots diff cleanly.
//   - Minimal: derived structures — the load tree, Greedy's failedUnder
//     counters, the copy list's first-fit hints, blocked leaves — are
//     rebuilt from first principles on Restore, never serialized.
//     (First-fit hints are lower bounds; restoring them as zero is
//     behavior-identical, just a cold cache.)
//   - Guarded: a trailing CRC-32C plus magic/version/algorithm header
//     rejects foreign or corrupt bytes up front, and every decoded value
//     is range-checked against the machine before it touches live state.
//     Restore never panics on hostile input and never retains the input
//     slice; on error the receiver is left unchanged.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"partalloc/internal/copies"
	"partalloc/internal/loadtree"
	"partalloc/internal/task"
	"partalloc/internal/tree"
)

// Checkpointable is implemented by allocators whose full state can be
// serialized and later restored. Snapshot returns a self-contained,
// versioned, CRC-guarded description of the allocator's live state;
// Restore replaces the receiver's state with the snapshotted one. The
// two ends must be the same algorithm on a machine of the same size.
//
// Contract: Restore(Snapshot()) leaves the allocator on a trajectory
// byte-identical to never having been snapshotted at all, and a second
// Snapshot after Restore returns the same bytes. Restore returns an
// error (wrapping ErrBadSnapshot) on corrupt, truncated, or mismatched
// input — it never panics — and on error the receiver is unchanged.
// Restore copies everything it needs out of data; the caller may reuse
// the slice immediately.
type Checkpointable interface {
	Snapshot() []byte
	Restore(data []byte) error
}

// ErrBadSnapshot is wrapped by every Restore failure: bad magic, version
// or algorithm mismatch, CRC failure, truncation, or any decoded value
// that fails validation against the machine.
var ErrBadSnapshot = errors.New("core: bad snapshot")

const (
	snapMagic0  = 'p'
	snapMagic1  = 'S'
	snapVersion = 1

	tagGreedy byte = iota + 1
	tagBasic
	tagPeriodic
	tagLazy
	tagRandom
	tagTwoChoice
	tagGreedyTie
)

// Decode-time plausibility caps. CRC catches random corruption, but a
// coverage-guided fuzzer can learn to fix checksums, so bounds that
// protect allocation and time must not depend on the checksum alone.
const (
	// maxSnapshotCopies bounds the copy-list length: each copy costs
	// O(N) memory, so an absurd count must fail before Grow runs.
	// Legitimate lists hold at most ~peak-concurrent-tasks copies.
	maxSnapshotCopies = 1 << 20
	// maxSnapshotCells bounds numCopies·N, the total memory a restored
	// copy list may take (in tree cells).
	maxSnapshotCells = 1 << 26
	// maxSnapshotDraws bounds PRNG fast-forward work on Restore. Real
	// trajectories draw a handful of values per arrival; 2^24 raw draws
	// is orders of magnitude past any workload the engine runs, and keeps
	// the worst-case fast-forward under ~50ms.
	maxSnapshotDraws = 1 << 24
)

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// guardRestore converts a panic escaping a restore body (e.g. a copies
// invariant violation on bytes that pass the CRC but describe an
// impossible layout) into an ErrBadSnapshot error.
func guardRestore(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: restore panicked: %v", ErrBadSnapshot, r)
		}
	}()
	return fn()
}

// snapEnc builds a snapshot: header, varint payload, trailing CRC-32C.
type snapEnc struct{ b []byte }

func newSnapEnc(tag byte) *snapEnc {
	return &snapEnc{b: []byte{snapMagic0, snapMagic1, snapVersion, tag}}
}

func (e *snapEnc) u(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *snapEnc) i(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *snapEnc) byte(v byte) { e.b = append(e.b, v) }

func (e *snapEnc) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// finish appends the CRC over everything emitted so far and returns the
// completed snapshot.
func (e *snapEnc) finish() []byte {
	return binary.LittleEndian.AppendUint32(e.b, crc32.Checksum(e.b, snapCRCTable))
}

// snapDec consumes a verified snapshot payload with a sticky error, so
// decode sequences read linearly and check once at the end.
type snapDec struct {
	b   []byte
	err error
}

// openSnap verifies length, CRC, magic, version, and algorithm tag, and
// returns a decoder positioned at the payload.
func openSnap(data []byte, tag byte) (*snapDec, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the smallest frame", ErrBadSnapshot, len(data))
	}
	body := data[:len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, snapCRCTable); got != sum {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrBadSnapshot, sum, got)
	}
	if body[0] != snapMagic0 || body[1] != snapMagic1 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, body[:2])
	}
	if body[2] != snapVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrBadSnapshot, body[2], snapVersion)
	}
	if body[3] != tag {
		return nil, fmt.Errorf("%w: snapshot of algorithm tag %d, restoring tag %d", ErrBadSnapshot, body[3], tag)
	}
	return &snapDec{b: body[4:]}, nil
}

func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrBadSnapshot, fmt.Sprintf(format, args...))
	}
}

func (d *snapDec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *snapDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *snapDec) bool() bool { return d.byte() != 0 }

// count reads a collection length and bounds it by the bytes remaining
// (every element costs at least minBytes), so hostile lengths fail
// before any allocation.
func (d *snapDec) count(what string, minBytes int) int {
	v := d.u()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)/minBytes)+1 {
		d.fail("%s count %d exceeds remaining payload", what, v)
		return 0
	}
	return int(v)
}

// close verifies the whole payload was consumed exactly.
func (d *snapDec) close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(d.b))
	}
	return nil
}

// machineN reads and validates the machine-size field against m.
func (d *snapDec) machineN(m *tree.Machine) {
	n := d.u()
	if d.err == nil && n != uint64(m.N()) {
		d.fail("snapshot of an N=%d machine, restoring onto N=%d", n, m.N())
	}
}

// --- shared sub-codecs -------------------------------------------------

// encPlacedNodes emits task→node placements in ascending task order.
func (e *snapEnc) encPlacedNodes(placed *taskTable[tree.Node]) {
	ids := placed.sortedIDs()
	e.u(uint64(len(ids)))
	for _, id := range ids {
		v, _ := placed.get(id)
		e.i(int64(id))
		e.u(uint64(v))
	}
}

// decPlacedNodes reads task→node placements, enforcing strictly ascending
// IDs (the canonical encoding, which also rules out duplicates) and valid
// nodes.
func decPlacedNodes(d *snapDec, m *tree.Machine) taskTable[tree.Node] {
	n := d.count("placement", 2)
	var placed taskTable[tree.Node]
	prev := int64(0)
	for k := 0; k < n; k++ {
		id := d.i()
		v := tree.Node(d.u())
		if d.err != nil {
			return taskTable[tree.Node]{}
		}
		if k > 0 && id <= prev {
			d.fail("placement IDs not strictly ascending (%d after %d)", id, prev)
			return taskTable[tree.Node]{}
		}
		prev = id
		if !m.Valid(v) {
			d.fail("task %d placed at invalid node %d", id, v)
			return taskTable[tree.Node]{}
		}
		placed.add(task.ID(id), v)
	}
	return placed
}

// encPlacedRecs emits task→placementRec placements in ascending task
// order. Sizes are derived (size == m.Size(node)), so only copy index and
// node are stored.
func (e *snapEnc) encPlacedRecs(placed *taskTable[placementRec]) {
	ids := placed.sortedIDs()
	e.u(uint64(len(ids)))
	for _, id := range ids {
		rec, _ := placed.get(id)
		e.i(int64(id))
		e.u(uint64(rec.copyIdx))
		e.u(uint64(rec.node))
	}
}

// decPlacedRecs reads task→placementRec placements for a copy list of
// numCopies copies.
func decPlacedRecs(d *snapDec, m *tree.Machine, numCopies int) taskTable[placementRec] {
	n := d.count("placement", 3)
	var placed taskTable[placementRec]
	prev := int64(0)
	for k := 0; k < n; k++ {
		id := d.i()
		ci := d.u()
		v := tree.Node(d.u())
		if d.err != nil {
			return taskTable[placementRec]{}
		}
		if k > 0 && id <= prev {
			d.fail("placement IDs not strictly ascending (%d after %d)", id, prev)
			return taskTable[placementRec]{}
		}
		prev = id
		if ci >= uint64(numCopies) {
			d.fail("task %d in copy %d of a %d-copy list", id, ci, numCopies)
			return taskTable[placementRec]{}
		}
		if !m.Valid(v) {
			d.fail("task %d placed at invalid node %d", id, v)
			return taskTable[placementRec]{}
		}
		placed.add(task.ID(id), placementRec{copyIdx: int(ci), node: v, size: m.Size(v)})
	}
	return placed
}

// encFaults emits the fault ledger: sorted failed PEs plus the forced-
// migration counters, which are *history* (not derivable from the failed
// set) and must survive restore without being re-counted.
func (e *snapEnc) encFaults(f *faultSet) {
	e.u(uint64(len(f.failed)))
	for _, pe := range f.failed {
		e.u(uint64(pe))
	}
	e.u(uint64(f.forced.Failures))
	e.u(uint64(f.forced.Recoveries))
	e.u(uint64(f.forced.Migrations))
	e.u(uint64(f.forced.MovedPEs))
}

// decFaults reads a fault ledger. The fields are assigned directly —
// going through markFailed would double-count ForcedStats.
func decFaults(d *snapDec, m *tree.Machine) faultSet {
	n := d.count("failed PE", 1)
	var f faultSet
	if n > 0 {
		f.failed = make([]int, 0, n)
	}
	prev := -1
	for k := 0; k < n; k++ {
		pe := d.u()
		if d.err != nil {
			return faultSet{}
		}
		if pe >= uint64(m.N()) || int(pe) <= prev {
			d.fail("failed PE list invalid at %d (N=%d, prev %d)", pe, m.N(), prev)
			return faultSet{}
		}
		prev = int(pe)
		f.failed = append(f.failed, int(pe))
	}
	f.forced.Failures = int(d.u())
	f.forced.Recoveries = int(d.u())
	f.forced.Migrations = int64(d.u())
	f.forced.MovedPEs = int64(d.u())
	return f
}

// encRealloc emits the d·N-budget ledger of a reallocating allocator.
func (e *snapEnc) encRealloc(sinceRealo, activeSize int64, stats ReallocStats) {
	e.i(sinceRealo)
	e.i(activeSize)
	e.u(uint64(stats.Reallocations))
	e.u(uint64(stats.Migrations))
	e.u(uint64(stats.MovedPEs))
}

func decRealloc(d *snapDec) (sinceRealo, activeSize int64, stats ReallocStats) {
	sinceRealo = d.i()
	activeSize = d.i()
	stats.Reallocations = int(d.u())
	stats.Migrations = int64(d.u())
	stats.MovedPEs = int64(d.u())
	if d.err == nil && (sinceRealo < 0 || activeSize < 0) {
		d.fail("negative budget counters (%d, %d)", sinceRealo, activeSize)
	}
	return sinceRealo, activeSize, stats
}

// decCopies reads a copy-list length under the plausibility caps.
func decCopies(d *snapDec, m *tree.Machine) int {
	n := d.u()
	if d.err != nil {
		return 0
	}
	if n > maxSnapshotCopies || n*uint64(m.N()) > maxSnapshotCells {
		d.fail("implausible copy count %d for N=%d", n, m.N())
		return 0
	}
	return int(n)
}

// encCopyPlaced emits copy-placed state: the copy count and the
// placements, then whatever ledger emits (A_M's d·N budget; nil for A_B),
// then the fault ledger.
func (e *snapEnc) encCopyPlaced(s *copyPlaced, ledger func()) {
	e.u(uint64(s.list.Len()))
	e.encPlacedRecs(&s.placed)
	if ledger != nil {
		ledger()
	}
	e.encFaults(&s.faultSet)
}

// decCopyPlaced reads what encCopyPlaced emitted, running ledger at the
// same point, checks that the payload ends there, and rebuilds the state:
// failed leaves pre-blocked, the copies grown, then every placement
// occupied verbatim. Copy.Occupy still validates vacancy, blocking, and
// nesting, so a CRC-valid snapshot describing an impossible layout fails
// here (caught by guardRestore) instead of corrupting live state.
func decCopyPlaced(d *snapDec, m *tree.Machine, ledger func()) (copyPlaced, error) {
	numCopies := decCopies(d, m)
	placed := decPlacedRecs(d, m, numCopies)
	if ledger != nil {
		ledger()
	}
	faults := decFaults(d, m)
	if err := d.close(); err != nil {
		return copyPlaced{}, err
	}
	s := copyPlaced{m: m, list: copies.NewList(m), loads: loadtree.New(m), placed: placed, faultSet: faults}
	for _, pe := range faults.failed {
		s.list.Block(m.LeafOf(pe))
	}
	s.list.Grow(numCopies)
	s.loads.BeginDeferred()
	for _, id := range placed.sortedIDs() {
		rec, _ := placed.get(id)
		s.list.OccupyAt(rec.copyIdx, rec.node)
		s.loads.Place(rec.node)
	}
	s.loads.EndDeferred()
	return s, nil
}

// encGreedy emits A_G's state after the machine size: its placements and
// fault ledger. A_M's greedy mode embeds the same bytes.
func (e *snapEnc) encGreedy(g *Greedy) {
	e.encPlacedNodes(&g.placed)
	e.encFaults(&g.faultSet)
}

// decGreedy reads what encGreedy emitted, checks that the payload ends
// there, and returns the A_G it describes.
func decGreedy(d *snapDec, m *tree.Machine) (*Greedy, error) {
	placed := decPlacedNodes(d, m)
	faults := decFaults(d, m)
	if err := d.close(); err != nil {
		return nil, err
	}
	return &Greedy{
		nodePlaced:  nodePlacedFrom(m, "A_G", placed),
		faultSet:    faults,
		failedUnder: rebuildFailedUnder(m, faults.failed),
	}, nil
}

// nodePlacedFrom returns node-placed state holding decoded placements,
// with the load tree derived from them.
func nodePlacedFrom(m *tree.Machine, name string, placed taskTable[tree.Node]) nodePlaced {
	loads := loadtree.New(m)
	loads.BeginDeferred()
	for _, e := range placed.slots {
		if e.used {
			loads.Place(e.val)
		}
	}
	loads.EndDeferred()
	return nodePlaced{m: m, name: name, loads: loads, placed: placed}
}

// rebuildFailedUnder derives Greedy's per-node failure counters from the
// failed-PE list (nil when fault-free, matching the lazy allocation of
// the live path).
func rebuildFailedUnder(m *tree.Machine, failed []int) []int32 {
	if len(failed) == 0 {
		return nil
	}
	fu := make([]int32, m.NumNodes()+1)
	for _, pe := range failed {
		for v := m.LeafOf(pe); ; v = m.Parent(v) {
			fu[v]++
			if v == 1 {
				break
			}
		}
	}
	return fu
}

// --- counting PRNG source ---------------------------------------------

// countingSource wraps math/rand's default source and counts raw draws.
// rand.Rand's rejection sampling (Intn) consumes a data-dependent number
// of raw values, so the only faithful serialization of PRNG position is
// (seed, raw draws); Restore re-seeds and fast-forwards. Both Int63 and
// Uint64 advance the underlying generator by exactly one step, so the
// replay can use either regardless of the original call mix, and pure
// delegation keeps the stream byte-identical to rand.NewSource — the
// golden A_Rand trajectories do not move.
type countingSource struct {
	seed  int64
	draws uint64
	src   rand.Source64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.src.Seed(seed)
}

// restoreTo re-seeds and replays draws raw steps, leaving the source at
// the exact snapshotted position.
func (s *countingSource) restoreTo(seed int64, draws uint64) {
	s.Seed(seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Int63()
	}
	s.draws = draws
}

// encRNG / decRNG serialize a counting source's position.
func (e *snapEnc) encRNG(s *countingSource) {
	e.i(s.seed)
	e.u(s.draws)
}

func decRNG(d *snapDec) (seed int64, draws uint64) {
	seed = d.i()
	draws = d.u()
	if d.err == nil && draws > maxSnapshotDraws {
		d.fail("implausible PRNG position %d", draws)
	}
	return seed, draws
}

// --- A_G ---------------------------------------------------------------

// Snapshot implements Checkpointable.
func (g *Greedy) Snapshot() []byte {
	e := newSnapEnc(tagGreedy)
	e.u(uint64(g.m.N()))
	e.encGreedy(g)
	return e.finish()
}

// Restore implements Checkpointable.
func (g *Greedy) Restore(data []byte) error {
	return guardRestore(func() error {
		d, err := openSnap(data, tagGreedy)
		if err != nil {
			return err
		}
		d.machineN(g.m)
		r, err := decGreedy(d, g.m)
		if err != nil {
			return err
		}
		*g = *r
		return nil
	})
}

// --- A_Rand, A_2choice, A_G-randtie ------------------------------------

// Snapshot implements Checkpointable. PRNG position is (seed, raw
// draws); see countingSource.
func (s *seeded) Snapshot() []byte {
	e := newSnapEnc(s.tag)
	e.u(uint64(s.m.N()))
	e.encRNG(s.src)
	e.encPlacedNodes(&s.placed)
	return e.finish()
}

// Restore implements Checkpointable.
func (s *seeded) Restore(data []byte) error {
	return guardRestore(func() error {
		d, err := openSnap(data, s.tag)
		if err != nil {
			return err
		}
		d.machineN(s.m)
		seed, draws := decRNG(d)
		placed := decPlacedNodes(d, s.m)
		if err := d.close(); err != nil {
			return err
		}
		src := newCountingSource(seed)
		src.restoreTo(seed, draws)
		s.src, s.rng = src, rand.New(src)
		s.nodePlaced = nodePlacedFrom(s.m, s.name, placed)
		return nil
	})
}

// --- A_B ---------------------------------------------------------------

// Snapshot implements Checkpointable.
func (b *Basic) Snapshot() []byte {
	e := newSnapEnc(tagBasic)
	e.u(uint64(b.m.N()))
	e.encCopyPlaced(&b.copyPlaced, nil)
	return e.finish()
}

// Restore implements Checkpointable.
func (b *Basic) Restore(data []byte) error {
	return guardRestore(func() error {
		d, err := openSnap(data, tagBasic)
		if err != nil {
			return err
		}
		d.machineN(b.m)
		s, err := decCopyPlaced(d, b.m, nil)
		if err != nil {
			return err
		}
		b.copyPlaced = s
		return nil
	})
}

// --- A_C / A_M / A_M-lazy ----------------------------------------------

// tag is the snapshot's algorithm tag. A_M-lazy keeps its own, and a
// layout without the lazy byte, since its trigger is fixed.
func (p *Periodic) tag() byte {
	if p.lazyOnly {
		return tagLazy
	}
	return tagPeriodic
}

// Snapshot implements Checkpointable. The mode byte is load-bearing: a
// copy-mode instance whose d was raised past the greedy bound at run
// time (Degradable) stays in copy mode, so the mode cannot be derived
// from d alone. The trigger state — sinceRealo and activeSize, which
// gate the reallocation condition — rides in the realloc ledger.
func (p *Periodic) Snapshot() []byte {
	e := newSnapEnc(p.tag())
	e.u(uint64(p.m.N()))
	e.i(int64(p.d))
	e.byte(byte(p.order))
	if !p.lazyOnly {
		e.bool(p.lazy)
	}
	e.bool(p.greedy != nil)
	if p.greedy != nil {
		e.encGreedy(p.greedy)
	} else {
		e.encCopyPlaced(&p.copyPlaced, func() { e.encRealloc(p.sinceRealo, p.activeSize, p.stats) })
	}
	return e.finish()
}

// Restore implements Checkpointable.
func (p *Periodic) Restore(data []byte) error {
	return guardRestore(func() error {
		d, err := openSnap(data, p.tag())
		if err != nil {
			return err
		}
		d.machineN(p.m)
		pd := d.i()
		order := ReallocOrder(d.byte())
		lazy := p.lazyOnly
		if !p.lazyOnly {
			lazy = d.bool()
		}
		greedyMode := d.bool()
		if d.err == nil && (pd < -1 || pd > int64(p.m.N())<<20) {
			d.fail("implausible d=%d", pd)
		}
		if d.err == nil && order > ArrivalOrder {
			d.fail("unknown reallocation order %d", order)
		}
		var (
			g                      *Greedy
			s                      = copyPlaced{m: p.m}
			sinceRealo, activeSize int64
			stats                  ReallocStats
		)
		if greedyMode {
			g, err = decGreedy(d, p.m)
		} else {
			s, err = decCopyPlaced(d, p.m, func() { sinceRealo, activeSize, stats = decRealloc(d) })
		}
		if err != nil {
			return err
		}
		p.d, p.order, p.lazy, p.greedy, p.copyPlaced = int(pd), order, lazy, g, s
		p.sinceRealo, p.activeSize, p.stats = sinceRealo, activeSize, stats
		return nil
	})
}
