package core

import "partalloc/internal/task"

// BatchApplier is implemented by allocators that can apply a slice of
// events more cheaply than calling Arrive/Depart once per event. The
// semantics are identical to the per-event loop — same placements, same
// reallocation triggers, same final loads and ReallocStats — only the
// aggregate bookkeeping is amortized: the load tree runs in deferred mode
// for the duration of the batch, so k events cost O(k) cover updates plus
// one O(N) rebuild instead of k eager O(log N) updates. None of these
// allocators searches its tree, so it holds no search table, and the
// rebuild refreshes maxBelow alone.
//
// A_G (and A_M in greedy mode) cannot implement this profitably:
// greedy placement queries LeftmostMinLoad on every arrival, which would
// force a rebuild per event anyway. Its tree holds the search table, so
// each of its eager updates costs O(log²N).
type BatchApplier interface {
	ApplyBatch(evs []task.Event)
}

// ApplyEvents applies a slice of events through the plain per-event
// Arrive/Depart path. It is the serial fallback for allocators that do not
// implement BatchApplier, and the reference behaviour batch application
// must match.
func ApplyEvents(a Allocator, evs []task.Event) {
	for _, e := range evs {
		switch e.Kind {
		case task.Arrive:
			a.Arrive(task.Task{ID: e.Task, Size: e.Size})
		case task.Depart:
			a.Depart(e.Task)
		}
	}
}

// ApplyBatch implements BatchApplier for A_B. Placement is first-fit over
// copies and never reads the load tree, so the whole batch runs deferred.
func (b *Basic) ApplyBatch(evs []task.Event) {
	b.loads.BeginDeferred()
	ApplyEvents(b, evs)
	b.loads.EndDeferred()
}

// ApplyBatch implements BatchApplier for A_M. The d·N reallocation
// threshold is evaluated per arrival exactly as in Arrive, and the lazy
// trigger reads the copy list, never the load tree, so batch and serial
// application reallocate at the same events. A reallocation mid-batch
// resets the load tree in place, which stays deferred.
func (p *Periodic) ApplyBatch(evs []task.Event) {
	if p.greedy != nil {
		ApplyEvents(p, evs)
		return
	}
	p.loads.BeginDeferred()
	ApplyEvents(p, evs)
	p.loads.EndDeferred()
}

// ApplyBatch implements BatchApplier for A_Rand, whose placement is
// oblivious to loads entirely.
func (r *Random) ApplyBatch(evs []task.Event) {
	r.loads.BeginDeferred()
	ApplyEvents(r, evs)
	r.loads.EndDeferred()
}
