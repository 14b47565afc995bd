// Command spacesim runs the space-sharing (exclusive subcube allocation)
// simulator and contrasts it with the paper's time-sharing model on the
// same job stream — the E12 comparison as a standalone tool.
//
// Examples:
//
//	spacesim -dim 8 -jobs 500 -rate 10 -mean 8
//	spacesim -dim 10 -strategy graycode
//	spacesim -dim 8 -compare        # all strategies + time-shared baselines
package main

import (
	"flag"
	"fmt"
	"os"

	"partalloc/internal/core"
	"partalloc/internal/report"
	"partalloc/internal/sim"
	"partalloc/internal/subcube"
	"partalloc/internal/topology"
)

func main() {
	dim := flag.Int("dim", 8, "hypercube dimension (N = 2^dim PEs)")
	strategy := flag.String("strategy", "buddy", "recognition: buddy|graycode|exhaustive")
	jobs := flag.Int("jobs", 500, "number of jobs")
	rate := flag.Float64("rate", 0, "Poisson arrival rate (0 = ~0.8·N offered)")
	mean := flag.Float64("mean", 8, "mean job duration")
	seed := flag.Int64("seed", 1, "stream seed")
	compare := flag.Bool("compare", false, "run all strategies plus time-shared baselines")
	flag.Parse()

	n := 1 << *dim
	if *rate == 0 {
		*rate = 0.8 * float64(n) / (2 * *mean)
	}
	stream := subcube.RandomJobs(*dim, *jobs, *rate, *mean, *seed)

	if !*compare {
		st, err := parseStrategy(*strategy)
		if err != nil {
			fatal(err)
		}
		res := subcube.RunQueue(*dim, st, stream)
		fmt.Printf("space-shared %s on %d-cube (N=%d): %d jobs\n", st, *dim, n, *jobs)
		fmt.Printf("  mean wait %.2f  p95 %.2f  max %.2f  queued %d/%d\n",
			res.MeanWait, res.P95Wait, res.MaxWait, res.EverQueued, *jobs)
		fmt.Printf("  utilization %.3f  makespan %.1f\n", res.Utilization, res.Makespan)
		return
	}

	tab := &report.Table{
		Caption: fmt.Sprintf("space vs time sharing on a %d-cube (N=%d), %d jobs", *dim, n, *jobs),
		Headers: []string{"discipline", "mean wait", "p95 wait", "frac queued", "utilization", "max PE load", "mig hops"},
	}
	for _, st := range subcube.Strategies() {
		res := subcube.RunQueue(*dim, st, stream)
		tab.AddRowf("space/"+st.String(), res.MeanWait, res.P95Wait,
			float64(res.EverQueued)/float64(*jobs), res.Utilization, 1, 0)
	}
	// The time-shared baselines run on the same hypercube the space-shared
	// strategies carve up, so their migration traffic is priced in cube hops.
	host, err := topology.NewHostNamed("hypercube", n)
	if err != nil {
		fatal(err)
	}
	m := host.Tree()
	seq, _ := subcube.Sequence(stream)
	for _, e := range []struct {
		name string
		mk   func() core.Allocator
	}{
		{"time/A_C", func() core.Allocator { return core.NewConstant(m) }},
		{"time/A_M(d=2)", func() core.Allocator { return core.NewPeriodic(m, 2, core.DecreasingSize) }},
		{"time/A_G", func() core.Allocator { return core.NewGreedy(m) }},
	} {
		res := sim.Run(e.mk(), seq, sim.Options{Host: host})
		tab.AddRowf(e.name, 0.0, 0.0, 0.0, 0.0, res.MaxLoad, res.MigHops)
	}
	if err := tab.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
}

// parseStrategy looks a recognition strategy up by its name.
func parseStrategy(name string) (subcube.Strategy, error) {
	for _, st := range subcube.Strategies() {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spacesim:", err)
	os.Exit(1)
}
