package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by 20–40% over
// minutes as neighbours come and go, and every timed figure drifts with
// it (see README.md, "Noise and bounds"). Each round therefore also times
// a fixed unit of work that shares no code with the engine, the host
// probe, and the run reports its timed end-to-end figures scaled to a
// host on which the probe takes probeNominalNs.

const (
	// probeLen is each probe goroutine's sort length; probeTableLen the
	// entries of the table it reads at random, larger than a core's
	// private caches so the probe feels the shared ones as the engine
	// does.
	probeLen      = 1 << 14
	probeTableLen = 1 << 20
	// probeNominalNs is about the probe's median time on the 2-vCPU VM
	// the bounds were calibrated on (Intel Xeon, 2.0 GHz) while its host
	// was quiet; on a slower host the probe takes longer.
	probeNominalNs = 3.0e6
)

// hostProbe is the fixed work: per client goroutine, sort a copy of a
// fixed pseudo-random slice, then read a shared table at positions that
// depend on the previous read. It allocates nothing once built.
type hostProbe struct {
	src   []uint32
	work  [clients][]uint32
	table []uint32
	sink  [clients]uint32
}

func newHostProbe() *hostProbe {
	rng := rand.New(rand.NewSource(1))
	p := &hostProbe{src: make([]uint32, probeLen), table: make([]uint32, probeTableLen)}
	for i := range p.src {
		p.src[i] = rng.Uint32()
	}
	for i := range p.table {
		p.table[i] = rng.Uint32()
	}
	for c := range p.work {
		p.work[c] = make([]uint32, probeLen)
	}
	return p
}

// run does the work on clients goroutines at once, as the closed loop
// does, and returns its wall time in ns.
func (p *hostProbe) run() int64 {
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := p.work[c]
			copy(w, p.src)
			slices.Sort(w)
			var x uint32
			for _, v := range w {
				x += p.table[(v^x)%probeTableLen]
			}
			p.sink[c] = x
		}(c)
	}
	wg.Wait()
	return int64(time.Since(start))
}
