// Overload handling: the MaxQueue admission policies and the Degrade
// policy's latency controller, which drives the paper's reallocation
// parameter d as a graceful-degradation knob (core.Degradable).
package engine

import (
	"fmt"
	"hash/fnv"
	"time"

	"partalloc/internal/core"
	"partalloc/internal/mathx"
)

// OverloadPolicy selects what Submit does when a submission would push a
// tenant's queue past Config.MaxQueue.
type OverloadPolicy int

const (
	// Block (the default) applies backpressure: the submission is
	// admitted in bound-sized chunks, applying batches between chunks,
	// so the call runs longer but nothing is lost and the queue never
	// exceeds the bound.
	Block OverloadPolicy = iota
	// Shed rejects the whole submission with ErrOverloaded; nothing is
	// queued or journaled. The caller owns the retry.
	Shed
	// Degrade admits like Block, but additionally trades placement
	// quality for ingestion speed: when the tenant's batch apply-latency
	// EWMA exceeds Config.DegradeBudget, the engine climbs the tenant's
	// degradation ladder — first switching A_M's trigger to lazy, then
	// doubling the effective d — and steps back down once the EWMA holds
	// under half the budget. Allocators that are not core.Degradable
	// behave exactly as under Block.
	Degrade
)

func (p OverloadPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case Shed:
		return "shed"
	case Degrade:
		return "degrade"
	default:
		return fmt.Sprintf("OverloadPolicy(%d)", int(p))
	}
}

// rung is one step on a tenant's degradation ladder.
type rung struct {
	d    int
	lazy bool
}

// degradeState is the per-tenant latency controller for the Degrade
// policy. Escalation is immediate (one rung per over-budget batch);
// de-escalation needs degradeHealthyStreak consecutive batches under
// half the budget — the factor-two hysteresis keeps the knob from
// flapping right at the boundary.
type degradeState struct {
	da      core.Degradable
	ladder  []rung
	level   int
	ewma    float64
	healthy int
	trans   []DegradeTransition
}

const (
	// degradeEWMAAlpha weights the newest batch latency in the EWMA.
	degradeEWMAAlpha = 0.25
	// degradeHealthyStreak is the de-escalation hysteresis, in batches.
	degradeHealthyStreak = 3
	// degradeMaxRungs caps the ladder length.
	degradeMaxRungs = 8
)

// newDegradeState builds the tenant's ladder, or returns nil when the
// allocator exposes no usable knob (not Degradable, delegating to A_G,
// or running with d = ∞). Rung 0 is the configured state; rung 1 turns
// on the lazy trigger (a free win: same Theorem 4.2 bound, far fewer
// reallocations); later rungs double d, stopping at the greedy bound
// ⌈½(log N+1)⌉ — beyond it reallocation cannot beat greedy anyway, so
// climbing further would spend migrations for nothing.
func newDegradeState(a core.Allocator) *degradeState {
	da, ok := a.(core.Degradable)
	if !ok {
		return nil
	}
	baseD, baseLazy := da.EffectiveD(), da.LazyRealloc()
	if baseD < 0 || !da.SetEffectiveD(baseD) {
		return nil // ∞ or greedy delegation: no machinery to retune
	}
	ladder := []rung{{baseD, baseLazy}}
	if !baseLazy {
		ladder = append(ladder, rung{baseD, true})
	}
	bound := mathx.GreedyBound(a.Machine().N())
	d := baseD * 2
	if d < 1 {
		d = 1
	}
	for len(ladder) < degradeMaxRungs && ladder[len(ladder)-1].d < bound {
		ladder = append(ladder, rung{d, true})
		d *= 2
	}
	return &degradeState{da: da, ladder: ladder}
}

// degradeStep feeds one batch's apply latency into the tenant's
// controller. Callers hold t.mu.
func (e *Engine) degradeStep(t *tenant, ns int64) {
	d := t.deg
	if d == nil {
		return
	}
	if t.batches == 1 {
		d.ewma = float64(ns)
	} else {
		d.ewma += degradeEWMAAlpha * (float64(ns) - d.ewma)
	}
	budget := float64(e.cfg.DegradeBudget.Nanoseconds())
	switch {
	case d.ewma > budget && d.level < len(d.ladder)-1:
		d.healthy = 0
		e.shiftDegrade(t, d.level+1, fmt.Sprintf(
			"apply-latency ewma %v over budget %v",
			time.Duration(d.ewma).Round(time.Microsecond), e.cfg.DegradeBudget))
	case d.ewma <= budget/2 && d.level > 0:
		d.healthy++
		if d.healthy >= degradeHealthyStreak {
			d.healthy = 0
			e.shiftDegrade(t, d.level-1, fmt.Sprintf(
				"apply-latency ewma %v under half budget for %d batches",
				time.Duration(d.ewma).Round(time.Microsecond), degradeHealthyStreak))
		}
	case d.ewma > budget/2:
		// Between half budget and budget (or pinned at a ladder end):
		// not healthy enough to de-escalate, so the streak resets.
		d.healthy = 0
	}
}

// shiftDegrade moves the tenant to ladder rung level, records the
// transition, and reports it to the audit checker.
func (e *Engine) shiftDegrade(t *tenant, level int, cause string) {
	d := t.deg
	from, to := d.ladder[d.level], d.ladder[level]
	d.da.SetLazyRealloc(to.lazy)
	d.da.SetEffectiveD(to.d)
	d.level = level
	tr := DegradeTransition{
		Batch: t.batches,
		FromD: from.d, ToD: to.d,
		FromLazy: from.lazy, ToLazy: to.lazy,
		Cause: cause,
	}
	d.trans = append(d.trans, tr)
	e.cfg.Sink.Degrade(t.id, level, int64(to.d), to.lazy)
	t.step.Checker().OnDegrade(tr.FromD, tr.ToD, tr.FromLazy, tr.ToLazy, tr.Cause)
}

// breakerArmed reports whether a poisoned tenant can ever be rebuilt:
// the engine needs the journal (the tenant's history), a rebuild recipe
// constructor, and the tenant's spec.
func (e *Engine) breakerArmed(t *tenant) bool {
	return e.cfg.Journal != nil && e.cfg.Rebuild != nil && t.hasSpec
}

// backoff computes the open interval after the tenant's latest trip:
// Base·2^(trips-1) capped at Max, plus a deterministic jitter of up to a
// quarter of that, hashed from (tenant, trips, seed).
func (e *Engine) backoff(t *tenant) int64 {
	b := e.cfg.Breaker
	d := b.Base
	for i := 1; i < t.trips && d < b.Max; i++ {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", t.id, t.trips, b.Seed)
	jitter := int64(h.Sum64() % uint64(d/4+1))
	return int64(d) + jitter
}
