package subcube

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
)

// Job is one space-shared request: it needs a dedicated subcube of Size
// PEs for Duration time units, and waits in FCFS order until one is
// recognized free.
type Job struct {
	ID       int
	Size     int
	Arrival  float64
	Duration float64
}

// QueueResult summarizes one space-shared run.
type QueueResult struct {
	Strategy    Strategy
	Dim         int
	Completed   int
	MeanWait    float64
	MaxWait     float64
	P95Wait     float64
	Makespan    float64
	Utilization float64 // time-averaged busy-PE fraction
	// EverQueued counts jobs that waited at all.
	EverQueued int
}

// releaseHeap orders scheduled subcube releases by time.
type releaseHeap []releaseItem

type releaseItem struct {
	at float64
	sc Subcube
	id int
}

func (h releaseHeap) Len() int { return len(h) }
func (h releaseHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h releaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)   { *h = append(*h, x.(releaseItem)) }
func (h *releaseHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// RunQueue simulates FCFS space-shared allocation of the job stream on a
// dim-cube under the given recognition strategy. Jobs must be ordered by
// arrival time.
func RunQueue(dim int, st Strategy, jobs []Job) QueueResult {
	c := NewCube(dim)
	res := QueueResult{Strategy: st, Dim: dim}
	var rel releaseHeap
	type waiting struct {
		job     Job
		since   float64
		started bool
	}
	var queue []waiting
	waits := make([]float64, 0, len(jobs))

	now := 0.0
	var busyIntegral float64 // ∫ used dt

	advance := func(t float64) {
		if t < now {
			panic("subcube: time went backwards")
		}
		busyIntegral += float64(c.Used()) * (t - now)
		now = t
	}

	startJob := func(j Job) bool {
		sc, ok := c.Find(j.Size, st)
		if !ok {
			return false
		}
		c.Allocate(sc)
		heap.Push(&rel, releaseItem{at: now + j.Duration, sc: sc, id: j.ID})
		return true
	}

	// drainQueue starts as many queued jobs as possible, strictly FCFS: it
	// stops at the first job that cannot start (no skipping — sizes behind
	// a blocked head wait with it).
	drainQueue := func() {
		for len(queue) > 0 {
			head := queue[0]
			if !startJob(head.job) {
				return
			}
			w := now - head.since
			waits = append(waits, w)
			if w > 0 {
				res.EverQueued++
			}
			queue = queue[1:]
		}
	}

	next := 0
	for next < len(jobs) || rel.Len() > 0 || len(queue) > 0 {
		arrivalAt := float64(0)
		haveArrival := next < len(jobs)
		if haveArrival {
			arrivalAt = jobs[next].Arrival
		}
		haveRelease := rel.Len() > 0
		switch {
		case haveArrival && (!haveRelease || arrivalAt <= rel[0].at):
			advance(arrivalAt)
			j := jobs[next]
			next++
			if !mathx.IsPow2(j.Size) || j.Size > c.N() {
				panic(fmt.Sprintf("subcube: job %d invalid size %d", j.ID, j.Size))
			}
			if len(queue) == 0 && startJob(j) {
				waits = append(waits, 0)
			} else {
				queue = append(queue, waiting{job: j, since: now})
			}
		case haveRelease:
			it := heap.Pop(&rel).(releaseItem)
			advance(it.at)
			c.Release(it.sc)
			res.Completed++
			drainQueue()
		default:
			// Queue non-empty but nothing running and no arrivals: the head
			// must be startable on an empty machine, else it can never run.
			if len(queue) > 0 {
				if !startJob(queue[0].job) {
					panic(fmt.Sprintf("subcube: job %d of size %d can never be placed",
						queue[0].job.ID, queue[0].job.Size))
				}
				w := now - queue[0].since
				waits = append(waits, w)
				if w > 0 {
					res.EverQueued++
				}
				queue = queue[1:]
			}
		}
	}

	res.Makespan = now
	if now > 0 {
		res.Utilization = busyIntegral / (float64(c.N()) * now)
	}
	if len(waits) > 0 {
		var sum float64
		for _, w := range waits {
			sum += w
			if w > res.MaxWait {
				res.MaxWait = w
			}
		}
		res.MeanWait = sum / float64(len(waits))
		sorted := append([]float64(nil), waits...)
		sort.Float64s(sorted)
		res.P95Wait = sorted[(len(sorted)-1)*95/100]
	}
	return res
}

// RandomJobs draws a Poisson job stream for space-shared experiments.
func RandomJobs(dim, count int, rate, meanDuration float64, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	maxExp := max(dim-1, 0)
	jobs := make([]Job, 0, count)
	now := 0.0
	for i := 0; i < count; i++ {
		now += rng.ExpFloat64() / rate
		e := 0
		for e < maxExp && rng.Intn(2) == 0 {
			e++
		}
		jobs = append(jobs, Job{
			ID:       i + 1,
			Size:     1 << e,
			Arrival:  now,
			Duration: rng.ExpFloat64()*meanDuration + 1e-3,
		})
	}
	return jobs
}

// Sequence converts a space-sharing job stream into the paper's
// open-loop event sequence, in which every job is serviced immediately
// for its duration, and returns the time-averaged offered PE load
// alongside. This is the time-shared side of the E12 comparison.
func Sequence(jobs []Job) (task.Sequence, float64) {
	type ev struct {
		at     float64
		arrive bool
		idx    int
	}
	evs := make([]ev, 0, 2*len(jobs))
	for i, j := range jobs {
		evs = append(evs, ev{at: j.Arrival, arrive: true, idx: i})
		evs = append(evs, ev{at: j.Arrival + j.Duration, arrive: false, idx: i})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		// Departures before arrivals at ties frees capacity first.
		return !evs[a].arrive && evs[b].arrive
	})
	b := task.NewBuilder()
	ids := make([]task.ID, len(jobs))
	var span float64
	for _, e := range evs {
		b.At(e.at)
		if e.arrive {
			ids[e.idx] = b.Arrive(jobs[e.idx].Size)
		} else {
			b.Depart(ids[e.idx])
		}
		span = max(span, e.at)
	}
	var peTime float64
	for _, j := range jobs {
		peTime += float64(j.Size) * j.Duration
	}
	offered := 0.0
	if span > 0 {
		offered = peTime / span
	}
	return b.Sequence(), offered
}
