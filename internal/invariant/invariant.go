// Package invariant is the dynamic counterpart of the partlint static
// suite (docs/LINTS.md): a pluggable checker that audits allocator state
// at event boundaries against the paper's correctness conditions.
//
// The static analyzers prove what the compiler can see; everything else —
// that the allocator's incremental load bookkeeping matches reality —
// must be checked at run time. The Checker validates, after every arrival
// and departure:
//
//   - load conservation: the sum of all PE loads equals the cumulative
//     size of active tasks (each task contributes exactly one thread to
//     each of its Size PEs — the load model of §2);
//   - MaxLoad consistency: the allocator's O(1)/O(log N) MaxLoad answer
//     agrees with a from-scratch maximum over the full PELoads snapshot
//     (generalizing the simulator's old paranoid check);
//   - the pigeonhole lower bound: MaxLoad ≥ ⌈S(σ;τ)/N⌉ — no allocator
//     can beat the optimal load L* of the current active set;
//   - placement validity: every active task sits on a valid node whose
//     submachine size equals the task's size, and the allocator's Active
//     count matches the checker's independent event ledger;
//   - reallocation budget: for a d-reallocation algorithm (§4.1), at
//     least d·N PEs' worth of arrivals separate consecutive
//     reallocations, and at most one reallocation happens per event;
//   - fault safety (OnFail/OnRecover, internal/fault): no active task
//     covers a failed PE, failed PEs carry zero load, load conservation
//     holds across forced migrations, and the pigeonhole bound
//     strengthens to ⌈S/healthy⌉ over the surviving PEs.
//
// Checks cost O(N + active) per event, so they are opt-in: the shared
// event step (sim.Step) calls through a nil-guarded pointer (nil in
// production runs), and the simulator and scheduler additionally attach
// a panicking checker to every run in builds with the `invariantdebug`
// tag, where the constant Debug lets the compiler delete the branch
// entirely otherwise.
package invariant

import (
	"fmt"
	"strings"

	"partalloc/internal/core"
	"partalloc/internal/mathx"
	"partalloc/internal/task"
	"partalloc/internal/topology"
	"partalloc/internal/tree"
)

// Violation is one failed invariant at one event.
type Violation struct {
	// Event is the 0-indexed event ordinal (checker's own count).
	Event int
	// Rule names the violated invariant, e.g. "load-conservation".
	Rule string
	// Detail is a human-readable explanation with the numbers involved.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d: %s: %s", v.Event, v.Rule, v.Detail)
}

// Checker audits one allocator through one event sequence. The zero value
// is not usable; construct with New. A nil *Checker is a valid no-op
// receiver for OnArrive/OnDepart, so call sites need no branching.
type Checker struct {
	m     *tree.Machine
	n     int64
	d     int  // realloc budget parameter; <1 disables the budget rule
	panic bool // panic on first violation instead of recording

	events           int
	activeSize       int64
	arrivedSize      int64
	arrivedAtRealloc int64
	lastRealloc      core.ReallocStats
	sizes            map[task.ID]int
	failed           map[int]bool // PEs the checker believes are down

	// Host-aware migration audit (SetHost/OnMigration). The load and
	// budget rules above need no per-topology variants — allocation runs
	// on the decomposition tree, identical across hosts — but the hop
	// ledger does: it ties the observed migration traffic to the
	// allocator's own MovedPEs counters and to the network diameter.
	host           *topology.Host
	volMovedPEs    int64
	volHops        int64
	forcedMovedPEs int64
	forcedHops     int64

	// Degradation-ledger chain (OnDegrade): each transition must leave
	// from the state the previous one arrived at.
	degSeen    bool
	lastToD    int
	lastToLazy bool

	violations []Violation
}

// New returns a checker for machine m that records violations.
func New(m *tree.Machine) *Checker {
	return &Checker{m: m, n: int64(m.N()), d: -1, sizes: make(map[task.ID]int), failed: make(map[int]bool)}
}

// SetReallocBudget arms the reallocation-budget rule for a d-reallocation
// algorithm: consecutive reallocations must be at least d·N arrived size
// apart. d < 1 (the default) disables the rule — d=0 algorithms (A_C) may
// reallocate on every arrival, and non-reallocating algorithms never
// trip it either way.
func (c *Checker) SetReallocBudget(d int) { c.d = d }

// SetPanic makes the checker panic on the first violation instead of
// recording it; this is what the simulator's Paranoid option uses.
func (c *Checker) SetPanic(p bool) { c.panic = p }

// SetHost arms the host-aware migration rules: every migration reported
// through OnMigration is priced in physical hops on h's network, and the
// per-event audit cross-checks the observed traffic against the
// allocator's MovedPEs ledgers and the network diameter. The host's
// decomposition must describe the checker's machine.
func (c *Checker) SetHost(h *topology.Host) {
	if c == nil || h == nil {
		return
	}
	if h.N() != c.m.N() {
		c.report("host-decomposition",
			fmt.Sprintf("host %s has %d PEs but the machine has %d", h.Name(), h.N(), c.m.N()))
		return
	}
	c.host = h
}

// OnMigration records one task move between the equal-size submachines
// rooted at from and to (forced marks failure-driven moves, which charge
// the fault ledger rather than the voluntary d·N budget). The simulator
// feeds it from the allocator's migration observer and from the forced
// migrations FailPE returns; it does not advance the event count — the
// enclosing OnArrive/OnFail does.
func (c *Checker) OnMigration(from, to tree.Node, forced bool) {
	if c == nil || c.host == nil {
		return
	}
	if !c.m.Valid(from) || !c.m.Valid(to) {
		c.report("migration-valid", fmt.Sprintf("migration between invalid nodes %d -> %d", from, to))
		return
	}
	if fs, ts := c.m.Size(from), c.m.Size(to); fs != ts {
		c.report("migration-valid",
			fmt.Sprintf("migration between different sizes %d (node %d) and %d (node %d)", fs, from, ts, to))
		return
	}
	size := int64(c.m.Size(from))
	hops := c.host.MigrationCost(from, to)
	if forced {
		c.forcedMovedPEs += size
		c.forcedHops += hops
	} else {
		c.volMovedPEs += size
		c.volHops += hops
	}
}

// OnArrive audits the allocator just after it placed task t at node v.
func (c *Checker) OnArrive(a core.Allocator, t task.Task, v tree.Node) {
	if c == nil {
		return
	}
	if !c.m.Valid(v) {
		c.report("placement-valid", fmt.Sprintf("task %d placed at invalid node %d", t.ID, v))
	} else if got := c.m.Size(v); got != t.Size {
		c.report("placement-size", fmt.Sprintf("task %d (size %d) placed on a size-%d submachine (node %d)", t.ID, t.Size, got, v))
	}
	c.sizes[t.ID] = t.Size
	c.activeSize += int64(t.Size)
	c.arrivedSize += int64(t.Size)
	c.check(a)
	c.events++
}

// OnDepart audits the allocator just after it released task id.
func (c *Checker) OnDepart(a core.Allocator, id task.ID) {
	if c == nil {
		return
	}
	size, ok := c.sizes[id]
	if !ok {
		c.report("event-ledger", fmt.Sprintf("departure of task %d the checker never saw arrive", id))
	} else {
		c.activeSize -= int64(size)
		delete(c.sizes, id)
	}
	c.check(a)
	c.events++
}

// OnFail audits the allocator just after it processed the failure of pe
// (forced migrations included). Load conservation must hold across the
// migration — failing a PE moves threads, it never creates or destroys
// them — and afterwards no active task may cover the failed PE.
func (c *Checker) OnFail(a core.Allocator, pe int) {
	if c == nil {
		return
	}
	if c.failed[pe] {
		c.report("fault-ledger", fmt.Sprintf("PE %d failed while already failed", pe))
	}
	c.failed[pe] = true
	c.check(a)
	c.events++
}

// OnRecover audits the allocator just after pe returned to service.
func (c *Checker) OnRecover(a core.Allocator, pe int) {
	if c == nil {
		return
	}
	if !c.failed[pe] {
		c.report("fault-ledger", fmt.Sprintf("PE %d recovered while not failed", pe))
	}
	delete(c.failed, pe)
	c.check(a)
	c.events++
}

// check runs the per-event invariants.
func (c *Checker) check(a core.Allocator) {
	loads := a.PELoads()

	// Load conservation: Σ_p load(p) = Σ_{active t} size(t).
	var sum int64
	max := 0
	for _, l := range loads {
		sum += int64(l)
		if l > max {
			max = l
		}
	}
	if sum != c.activeSize {
		c.report("load-conservation",
			fmt.Sprintf("PE loads sum to %d but active tasks total %d PEs", sum, c.activeSize))
	}

	// MaxLoad consistency against the full snapshot.
	if got := a.MaxLoad(); got != max {
		c.report("maxload-snapshot",
			fmt.Sprintf("MaxLoad()=%d but the PE snapshot maximum is %d", got, max))
	}

	// Pigeonhole: some PE carries at least ⌈S/healthy⌉ threads. With PEs
	// down the bound strengthens — active threads squeeze into the healthy
	// PEs only.
	if healthy := c.n - int64(len(c.failed)); c.activeSize > 0 && healthy > 0 {
		if lb := int(mathx.CeilDiv64(c.activeSize, healthy)); max < lb {
			c.report("optimal-lower-bound",
				fmt.Sprintf("snapshot max load %d is below the pigeonhole bound ⌈%d/%d⌉=%d — loads are underreported", max, c.activeSize, healthy, lb))
		}
	}

	// Failed PEs carry no threads: every task that covered them was
	// forcibly migrated away, and nothing may be placed there since.
	for pe := range c.failed {
		if pe >= 0 && pe < len(loads) && loads[pe] != 0 {
			c.report("failed-pe-load",
				fmt.Sprintf("failed PE %d carries load %d, want 0", pe, loads[pe]))
		}
	}

	// Placement validity for every task in the independent ledger.
	if got := a.Active(); got != len(c.sizes) {
		c.report("active-count",
			fmt.Sprintf("allocator reports %d active tasks, event ledger has %d", got, len(c.sizes)))
	}
	for id, size := range c.sizes {
		v, ok := a.Placement(id)
		if !ok {
			c.report("placement-valid", fmt.Sprintf("active task %d has no placement", id))
			continue
		}
		if !c.m.Valid(v) {
			c.report("placement-valid", fmt.Sprintf("active task %d placed at invalid node %d", id, v))
			continue
		}
		if got := c.m.Size(v); got != size {
			c.report("placement-size",
				fmt.Sprintf("active task %d (size %d) sits on a size-%d submachine (node %d)", id, size, got, v))
		}
		for pe := range c.failed {
			if c.m.Contains(v, c.m.LeafOf(pe)) {
				c.report("failed-pe-coverage",
					fmt.Sprintf("active task %d (node %d) covers failed PE %d", id, v, pe))
			}
		}
	}

	// Reallocation budget accounting.
	if r, ok := a.(core.Reallocator); ok {
		stats := r.ReallocStats()
		if delta := stats.Reallocations - c.lastRealloc.Reallocations; delta > 0 {
			if delta > 1 {
				c.report("realloc-budget",
					fmt.Sprintf("%d reallocations within a single event", delta))
			}
			if c.d >= 1 {
				if spent := c.arrivedSize - c.arrivedAtRealloc; spent < int64(c.d)*c.n {
					c.report("realloc-budget",
						fmt.Sprintf("reallocation after only %d arrived PEs; budget requires d·N = %d·%d = %d",
							spent, c.d, c.n, int64(c.d)*c.n))
				}
			}
			c.arrivedAtRealloc = c.arrivedSize
		}
		if stats.Migrations < c.lastRealloc.Migrations || stats.MovedPEs < c.lastRealloc.MovedPEs {
			c.report("realloc-budget", "reallocation statistics decreased")
		}
		c.lastRealloc = stats
	}

	// Host-aware migration ledger: the traffic observed through
	// OnMigration must match the allocator's own counters, and the hop
	// total must be achievable on the network — at least one hop per
	// moved PE (distinct aligned ranges are at distance ≥ 1) and at most
	// the diameter per moved PE.
	if c.host != nil {
		if r, ok := a.(core.Reallocator); ok {
			if got := r.ReallocStats().MovedPEs; got != c.volMovedPEs {
				c.report("migration-ledger",
					fmt.Sprintf("allocator reports %d voluntarily moved PEs, observer saw %d", got, c.volMovedPEs))
			}
		}
		if ft, ok := a.(core.FaultTolerant); ok {
			if got := ft.ForcedStats().MovedPEs; got != c.forcedMovedPEs {
				c.report("migration-ledger",
					fmt.Sprintf("allocator reports %d forcibly moved PEs, observer saw %d", got, c.forcedMovedPEs))
			}
		}
		diam := int64(c.host.Diameter())
		for _, b := range []struct {
			kind  string
			moved int64
			hops  int64
		}{{"voluntary", c.volMovedPEs, c.volHops}, {"forced", c.forcedMovedPEs, c.forcedHops}} {
			if b.hops < b.moved || b.hops > b.moved*diam {
				c.report("migration-hops",
					fmt.Sprintf("%s migration traffic of %d hops for %d moved PEs is outside [%d, %d·%d] on %s",
						b.kind, b.hops, b.moved, b.moved, b.moved, diam, c.host.Name()))
			}
		}
	}
}

// OnQueue audits the engine's per-tenant ingestion bound after a queue
// mutation: under Config.MaxQueue no queue may ever exceed it — neither
// Block's chunked admission nor Shed's rejection is allowed to overshoot.
// maxQueue ≤ 0 (unbounded) disables the rule. Queue audits do not advance
// the event count; they sit between allocator events.
func (c *Checker) OnQueue(queued, maxQueue int) {
	if c == nil || maxQueue <= 0 {
		return
	}
	if queued > maxQueue {
		c.report("queue-bound",
			fmt.Sprintf("ingestion queue holds %d events, bound is %d", queued, maxQueue))
	}
	if queued < 0 {
		c.report("queue-bound", fmt.Sprintf("ingestion queue length %d is negative", queued))
	}
}

// OnDegrade audits one effective-d transition of the engine's Degrade
// overload policy: every transition must carry a recorded cause, actually
// change the knob, and chain from the state the previous transition
// arrived at — so TenantStats.Degrades is a complete, gap-free history.
func (c *Checker) OnDegrade(fromD, toD int, fromLazy, toLazy bool, cause string) {
	if c == nil {
		return
	}
	if strings.TrimSpace(cause) == "" {
		c.report("degrade-ledger",
			fmt.Sprintf("transition d=%d→%d lazy=%v→%v has no recorded cause", fromD, toD, fromLazy, toLazy))
	}
	if fromD == toD && fromLazy == toLazy {
		c.report("degrade-ledger",
			fmt.Sprintf("no-op transition recorded at d=%d lazy=%v", fromD, fromLazy))
	}
	if c.degSeen && (fromD != c.lastToD || fromLazy != c.lastToLazy) {
		c.report("degrade-ledger",
			fmt.Sprintf("transition leaves d=%d lazy=%v but the previous one arrived at d=%d lazy=%v",
				fromD, fromLazy, c.lastToD, c.lastToLazy))
	}
	c.degSeen, c.lastToD, c.lastToLazy = true, toD, toLazy
}

func (c *Checker) report(rule, detail string) {
	v := Violation{Event: c.events, Rule: rule, Detail: detail}
	if c.panic {
		panic(fmt.Sprintf("invariant: %s", v))
	}
	c.violations = append(c.violations, v)
}

// Events returns how many events the checker has audited.
func (c *Checker) Events() int {
	if c == nil {
		return 0
	}
	return c.events
}

// Violations returns every recorded violation in event order.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return c.violations
}

// Err returns nil if no invariant was violated, or an error summarizing
// every violation.
func (c *Checker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s) in %d events:", len(c.violations), c.events)
	for _, v := range c.violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}
