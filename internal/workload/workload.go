// Package workload generates synthetic task sequences for the experiments.
//
// The paper's model has users arriving at unpredictable times, requesting
// power-of-two submachines, and departing at unpredictable times. The
// generators here produce such sequences from explicit, seeded random
// processes so every experiment is reproducible:
//
//   - Poisson arrivals with exponential, Pareto (heavy-tailed) or uniform
//     service times — the classic multiprogrammed-machine model;
//   - size distributions over powers of two: uniform-exponent, geometric
//     (small tasks dominate), fixed, and a "mixed" profile with occasional
//     full-machine jobs;
//   - a multi-user session model in the spirit of the paper's CM-5/SP2
//     motivation: users come and go in sessions, each submitting a burst
//     of jobs sized to their partition;
//   - saturation loads that keep the active size near a target fraction of
//     N, the regime where thread-management pressure is highest.
package workload

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"partalloc/internal/mathx"
	"partalloc/internal/task"
)

// SizeDist selects how task sizes (exponents of two) are drawn.
type SizeDist int

const (
	// UniformSizes draws the exponent uniformly from [0, MaxExp].
	UniformSizes SizeDist = iota
	// GeometricSizes halves the probability per exponent step: small tasks
	// dominate, as in most real job logs.
	GeometricSizes
	// FixedSize always uses MaxExp.
	FixedSize
	// MixedSizes mostly draws geometric small tasks but with probability
	// 1/16 submits a half- or full-machine job.
	MixedSizes
)

func (d SizeDist) String() string {
	switch d {
	case UniformSizes:
		return "uniform"
	case GeometricSizes:
		return "geometric"
	case FixedSize:
		return "fixed"
	case MixedSizes:
		return "mixed"
	}
	return fmt.Sprintf("SizeDist(%d)", int(d))
}

// DurationDist selects the service-time law.
type DurationDist int

const (
	// ExpDurations draws exponential service times (memoryless).
	ExpDurations DurationDist = iota
	// ParetoDurations draws Pareto(α=1.5) service times: heavy-tailed, a
	// few jobs run very long — the worst case for never-reallocating
	// allocators because fragmentation persists.
	ParetoDurations
	// UniformDurations draws uniformly from (0, 2·MeanDuration).
	UniformDurations
)

func (d DurationDist) String() string {
	switch d {
	case ExpDurations:
		return "exponential"
	case ParetoDurations:
		return "pareto"
	case UniformDurations:
		return "uniform"
	}
	return fmt.Sprintf("DurationDist(%d)", int(d))
}

// Config parameterizes the Poisson generator.
type Config struct {
	// N is the machine size; task sizes never exceed it.
	N int
	// MaxExp caps task sizes at 2^MaxExp; 0 means log2(N)-1 (the paper's
	// interesting regime: tasks of size N cause no imbalance).
	MaxExp int
	// Arrivals is the number of task arrivals to generate.
	Arrivals int
	// ArrivalRate is the Poisson rate λ (arrivals per unit time).
	ArrivalRate float64
	// MeanDuration is the mean service time.
	MeanDuration float64
	// Sizes selects the size distribution.
	Sizes SizeDist
	// Durations selects the service-time distribution.
	Durations DurationDist
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxExp == 0 {
		c.MaxExp = max(mathx.Log2(c.N)-1, 0)
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 1
	}
	if c.MeanDuration == 0 {
		c.MeanDuration = 10
	}
	if c.Arrivals == 0 {
		c.Arrivals = 1000
	}
	return c
}

// drawSize returns a power-of-two size per the configured distribution.
func drawSize(rng *rand.Rand, dist SizeDist, maxExp int) int {
	switch dist {
	case UniformSizes:
		return 1 << rng.Intn(maxExp+1)
	case GeometricSizes:
		e := 0
		for e < maxExp && rng.Intn(2) == 0 {
			e++
		}
		return 1 << e
	case FixedSize:
		return 1 << maxExp
	case MixedSizes:
		if rng.Intn(16) == 0 {
			if rng.Intn(2) == 0 && maxExp > 0 {
				return 1 << (maxExp - 1)
			}
			return 1 << maxExp
		}
		e := 0
		for e < maxExp && rng.Intn(2) == 0 {
			e++
		}
		return 1 << e
	}
	panic(fmt.Sprintf("workload: unknown size distribution %d", dist))
}

// drawDuration returns a service time per the configured distribution.
func drawDuration(rng *rand.Rand, dist DurationDist, mean float64) float64 {
	switch dist {
	case ExpDurations:
		return rng.ExpFloat64() * mean
	case ParetoDurations:
		// Pareto with α = 1.5 and x_min chosen so the mean is `mean`:
		// E[X] = α·x_min/(α−1) = 3·x_min, so x_min = mean/3.
		const alpha = 1.5
		xmin := mean / 3
		return xmin / math.Pow(1-rng.Float64(), 1/alpha)
	case UniformDurations:
		return rng.Float64() * 2 * mean
	}
	panic(fmt.Sprintf("workload: unknown duration distribution %d", dist))
}

// depHeap is a min-heap of scheduled departures ordered by (time, id).
type depItem struct {
	at float64
	id task.ID
}

type depHeap []depItem

func (h depHeap) Len() int { return len(h) }
func (h depHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h depHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x any)     { *h = append(*h, x.(depItem)) }
func (h *depHeap) Pop() any       { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h depHeap) peek() depItem   { return h[0] }
func (h *depHeap) pop() depItem   { return heap.Pop(h).(depItem) }
func (h *depHeap) push(d depItem) { heap.Push(h, d) }

// Poisson generates a sequence with Poisson task arrivals and i.i.d.
// service times.
func Poisson(cfg Config) task.Sequence {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := task.NewBuilder()
	now := 0.0
	var deps depHeap
	for i := 0; i < cfg.Arrivals; i++ {
		now += rng.ExpFloat64() / cfg.ArrivalRate
		for deps.Len() > 0 && deps.peek().at < now {
			d := deps.pop()
			b.At(d.at).Depart(d.id)
		}
		b.At(now)
		size := drawSize(rng, cfg.Sizes, cfg.MaxExp)
		id := b.Arrive(size)
		deps.push(depItem{at: now + drawDuration(rng, cfg.Durations, cfg.MeanDuration), id: id})
	}
	for deps.Len() > 0 {
		d := deps.pop()
		b.At(d.at).Depart(d.id)
	}
	return b.Sequence()
}

// SaturationConfig parameterizes a closed-loop generator that holds the
// active size near a target fraction of N — the regime where every
// allocation decision matters because the machine is near-full.
type SaturationConfig struct {
	N        int
	MaxExp   int     // 0 → log2(N)-1
	Target   float64 // target active fraction of N, e.g. 0.9
	Events   int     // total events to generate
	Sizes    SizeDist
	Seed     int64
	Churn    float64 // probability that a step retires a task even under target
	TimeStep float64 // clock advance per event; 0 → 1
}

// Saturation generates a closed-loop sequence: below the target fill level
// it arrives tasks, above it departs random active tasks, with churn mixing
// the two so fragmentation opportunities appear continuously.
func Saturation(cfg SaturationConfig) task.Sequence {
	if cfg.MaxExp == 0 {
		cfg.MaxExp = max(mathx.Log2(cfg.N)-1, 0)
	}
	if cfg.Target == 0 {
		cfg.Target = 0.9
	}
	if cfg.Events == 0 {
		cfg.Events = 1000
	}
	if cfg.TimeStep == 0 {
		cfg.TimeStep = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := task.NewBuilder()
	now := 0.0
	targetSize := int64(cfg.Target * float64(cfg.N))
	for i := 0; i < cfg.Events; i++ {
		now += cfg.TimeStep
		b.At(now)
		act := b.Active()
		if len(act) > 0 && (b.ActiveSize() >= targetSize || rng.Float64() < cfg.Churn) {
			b.Depart(act[rng.Intn(len(act))])
		} else {
			b.Arrive(drawSize(rng, cfg.Sizes, cfg.MaxExp))
		}
	}
	return b.Sequence()
}

// SessionConfig parameterizes the multi-user session generator — the
// paper's CM-5-style motivation, where each user owns a virtual partition
// for a while and submits work into it.
type SessionConfig struct {
	N            int
	Sessions     int     // number of user sessions
	MeanJobs     int     // mean jobs submitted per session (geometric, ≥1)
	SessionRate  float64 // Poisson rate of session starts
	MeanLifetime float64 // mean session duration (exponential)
	Seed         int64
}

// sessionEv is a pending arrival/departure of one session job.
type sessionEv struct {
	at     float64
	arrive bool
	size   int
	key    int64
}

// Sessions generates a sequence in which each user session requests a
// power-of-two partition size (geometrically distributed) and submits a
// burst of jobs of that size over the session's lifetime; all of the
// session's jobs depart by the session end.
func Sessions(cfg SessionConfig) task.Sequence {
	if cfg.Sessions == 0 {
		cfg.Sessions = 50
	}
	if cfg.MeanJobs == 0 {
		cfg.MeanJobs = 4
	}
	if cfg.SessionRate == 0 {
		cfg.SessionRate = 0.5
	}
	if cfg.MeanLifetime == 0 {
		cfg.MeanLifetime = 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	maxExp := max(mathx.Log2(cfg.N)-1, 0)

	var evs []sessionEv
	now := 0.0
	key := int64(0)
	for s := 0; s < cfg.Sessions; s++ {
		now += rng.ExpFloat64() / cfg.SessionRate
		end := now + rng.ExpFloat64()*cfg.MeanLifetime
		// Partition size for this user.
		e := 0
		for e < maxExp && rng.Intn(2) == 0 {
			e++
		}
		size := 1 << e
		jobs := 1
		for rng.Float64() > 1/float64(cfg.MeanJobs) {
			jobs++
		}
		for j := 0; j < jobs; j++ {
			start := now + rng.Float64()*(end-now)
			stop := start + rng.Float64()*(end-start)
			k := key
			key++
			evs = append(evs, sessionEv{at: start, arrive: true, size: size, key: k})
			evs = append(evs, sessionEv{at: stop, arrive: false, size: size, key: k})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].key != evs[j].key {
			return evs[i].key < evs[j].key
		}
		return evs[i].arrive && !evs[j].arrive
	})
	b := task.NewBuilder()
	open := make(map[int64]task.ID)
	for _, e := range evs {
		b.At(e.at)
		if e.arrive {
			open[e.key] = b.Arrive(e.size)
		} else {
			b.Depart(open[e.key])
			delete(open, e.key)
		}
	}
	return b.Sequence()
}
