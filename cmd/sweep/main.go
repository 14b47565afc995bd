// Command sweep runs a parameter sweep — machine size N, reallocation
// parameter d, or random seed — for a set of algorithms over a common
// workload, and prints a table (ASCII, Markdown or CSV). It is the general
// tool behind the fixed experiment runners in cmd/experiments.
//
// Cells run on a bounded worker pool with panic capture, so one bad cell
// (say, capacity exhaustion under an aggressive fault schedule) cannot
// take down the sweep. With -checkpoint the completed rows are saved as
// JSON after every cell; SIGINT drains in-flight cells, writes the
// checkpoint and exits 130, and -resume skips everything already done —
// the final table is byte-identical to an uninterrupted run. See
// docs/FAULTS.md for the checkpoint/resume protocol and the -faults
// schedule format.
//
// Examples:
//
//	sweep -axis d -n 1024 -algos constant,periodic,lazy,greedy
//	sweep -axis n -ns 64,256,1024 -algos greedy,random -workload saturation
//	sweep -axis seed -seeds 20 -algos periodic -d 2 -format csv
//	sweep -axis n -ns 64,256 -algos constant,lazy -topology hypercube
//	sweep -axis seed -seeds 50 -faults sched.faults -checkpoint cp.json
//	sweep -resume -checkpoint cp.json ...   # after an interruption
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"partalloc/internal/cli"
	"partalloc/internal/core"
	"partalloc/internal/fault"
	"partalloc/internal/mathx"
	"partalloc/internal/parallel"
	"partalloc/internal/report"
	"partalloc/internal/sim"
	"partalloc/internal/stats"
)

// cellSpec is one table row's worth of work, fixed before any cell runs so
// the sweep shape (and hence row indexing for checkpoints) is deterministic.
type cellSpec struct {
	axisVal string
	algo    string // CLI algorithm name
	label   string // display name, e.g. A_M(d=2)
	n       int
	d       int
	seeds   []int64
}

type config struct {
	workload string
	topology string
	events   int
	faults   fault.Schedule
	hasFault bool
}

func main() {
	axis := flag.String("axis", "d", "sweep axis: d|n|seed")
	n := flag.Int("n", 1024, "machine size (fixed axes)")
	nsFlag := flag.String("ns", "64,256,1024,4096", "machine sizes for -axis n")
	d := flag.Int("d", 2, "reallocation parameter (fixed axes)")
	algosFlag := flag.String("algos", "constant,periodic,lazy,greedy,basic,random", "comma-separated algorithms")
	wl := flag.String("workload", "saturation", "workload: poisson|saturation|sessions")
	topo := flag.String("topology", "tree", cli.TopologyUsage())
	seeds := flag.Int("seeds", 5, "seeds per cell (or sweep length for -axis seed)")
	events := flag.Int("events", 3000, "workload length (events or arrivals)")
	format := flag.String("format", "ascii", "output: ascii|markdown|csv")
	workers := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	faultsFlag := flag.String("faults", "", "fault schedule file (see docs/FAULTS.md)")
	checkpointFlag := flag.String("checkpoint", "", "JSON checkpoint file, updated after every completed cell")
	resume := flag.Bool("resume", false, "skip cells already completed in -checkpoint")
	haltAfter := flag.Int("halt-after", 0, "stop claiming cells after this many complete, as if interrupted (testing)")
	panicCell := flag.Int("panic-cell", -1, "panic inside this cell index (testing)")
	flag.Parse()

	if err := run(params{
		axis: *axis, n: *n, ns: *nsFlag, d: *d, algos: *algosFlag, wl: *wl,
		topo:  *topo,
		seeds: *seeds, events: *events, format: *format, workers: *workers,
		faultsFile: *faultsFlag, checkpoint: *checkpointFlag, resume: *resume,
		haltAfter: *haltAfter, panicCell: *panicCell,
	}); err != nil {
		var ue usageError
		if errors.As(err, &ue) {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			flag.Usage()
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

type params struct {
	axis, ns, algos, wl, format  string
	topo                         string
	n, d, seeds, events, workers int
	faultsFile, checkpoint       string
	resume                       bool
	haltAfter, panicCell         int
}

// usageError marks flag-validation failures that should print usage text.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func badFlag(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func run(p params) error {
	specs, cfg, fingerprint, err := plan(p)
	if err != nil {
		return err
	}

	rows := make([][]string, len(specs))
	if p.resume {
		if p.checkpoint == "" {
			return badFlag("-resume requires -checkpoint")
		}
		done, err := cli.LoadCheckpoint[[]string](p.checkpoint, fingerprint)
		if err != nil {
			return err
		}
		for i := range specs {
			if row, ok := done[strconv.Itoa(i)]; ok {
				rows[i] = row
			}
		}
	}

	var pending []int
	for i := range specs {
		if rows[i] == nil {
			pending = append(pending, i)
		}
	}

	// Cancellation: stop claiming cells, let in-flight ones drain,
	// checkpoint, exit 130. SIGINT and a cancelled context take the same
	// path (cli.WithInterrupt); a second SIGINT falls through to the
	// default handler.
	ctx, stop := cli.WithInterrupt(context.Background(), func() {
		fmt.Fprintln(os.Stderr, "sweep: interrupt — draining in-flight cells")
	})
	defer stop()

	// Checkpoint writes happen outside the results mutex: snapshot the
	// rows under mu, then hand the snapshot to the writer, which
	// serializes and coalesces disk I/O on its own. Holding mu across
	// cli.SaveCheckpoint would park every other worker's row update
	// behind the disk (caught by the lockorder analyzer).
	var mu sync.Mutex
	completed := 0
	writer := cli.NewCheckpointWriter[[]string](p.checkpoint, fingerprint)
	snapshotLocked := func() map[string][]string {
		entries := make(map[string][]string)
		for i, row := range rows {
			if row != nil {
				entries[strconv.Itoa(i)] = row
			}
		}
		return entries
	}

	errs := parallel.RunCells(len(pending), parallel.RunOptions{Workers: p.workers, Cancel: ctx.Done()}, func(k int) error {
		i := pending[k]
		if i == p.panicCell {
			panic(fmt.Sprintf("sweep: injected panic in cell %d (-panic-cell)", i))
		}
		row, err := runCell(specs[i], cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		rows[i] = row
		completed++
		seq := completed
		entries := snapshotLocked()
		halt := p.haltAfter > 0 && completed >= p.haltAfter
		mu.Unlock()
		if halt {
			stop()
		}
		return writer.Save(seq, entries)
	})

	interrupted := false
	var failures []string
	for k, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, parallel.ErrCanceled):
			interrupted = true
		default:
			failures = append(failures, fmt.Sprintf("cell %d (%s, %s): %v",
				pending[k], specs[pending[k]].axisVal, specs[pending[k]].label, err))
		}
	}
	// Workers have drained; force one final write (seq beyond any
	// incremental one) so the checkpoint always reflects every completed
	// cell, retrying anything a mid-run write error left behind.
	if err := func() error {
		mu.Lock()
		seq, entries := completed+1, snapshotLocked()
		mu.Unlock()
		return writer.Save(seq, entries)
	}(); err != nil {
		return err
	}

	if interrupted {
		where := "no checkpoint was requested; completed work is lost"
		if p.checkpoint != "" {
			where = fmt.Sprintf("re-run with -resume -checkpoint %s to continue", p.checkpoint)
		}
		fmt.Fprintf(os.Stderr, "sweep: interrupted with %d/%d cells done; %s\n", completed, len(pending), where)
		os.Exit(130)
	}

	tab := buildTable(p, cfg, specs, rows)
	switch p.format {
	case "ascii":
		err = tab.WriteASCII(os.Stdout)
	case "markdown":
		err = tab.WriteMarkdown(os.Stdout)
	case "csv":
		err = tab.WriteCSV(os.Stdout)
	}
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "sweep:", f)
		}
		return fmt.Errorf("%d of %d cells failed", len(failures), len(specs))
	}
	return nil
}

// plan validates every flag and expands the sweep into its cell specs.
// All validation errors surface here, with usage text, before any work
// starts — never as a panic mid-sweep.
func plan(p params) ([]cellSpec, config, string, error) {
	cfg := config{workload: p.wl, topology: p.topo, events: p.events}
	if _, err := cli.MakeHost(p.topo, p.n); err != nil {
		return nil, cfg, "", badFlag("-topology/-n: %v", err)
	}
	if p.d < -1 {
		return nil, cfg, "", badFlag("-d must be ≥ -1 (got %d); -1 means never reallocate", p.d)
	}
	if p.seeds < 1 {
		return nil, cfg, "", badFlag("-seeds must be ≥ 1 (got %d)", p.seeds)
	}
	if p.events < 1 {
		return nil, cfg, "", badFlag("-events must be ≥ 1 (got %d)", p.events)
	}
	switch p.format {
	case "ascii", "markdown", "csv":
	default:
		return nil, cfg, "", badFlag("unknown format %q (want ascii|markdown|csv)", p.format)
	}
	if _, err := cli.MakeWorkload(p.wl, cli.WorkloadSpec{N: p.n, Arrivals: 1, Events: 1, Sessions: 1}); err != nil {
		return nil, cfg, "", badFlag("%v", err)
	}

	faultText := ""
	if p.faultsFile != "" {
		data, err := os.ReadFile(p.faultsFile)
		if err != nil {
			return nil, cfg, "", badFlag("-faults: %v", err)
		}
		faultText = string(data)
		// Range-check per cell (machine sizes vary on -axis n); here only
		// the structure is validated.
		s, err := fault.ParseText(strings.NewReader(faultText), 0)
		if err != nil {
			return nil, cfg, "", badFlag("-faults %s: %v", p.faultsFile, err)
		}
		cfg.faults = s
		cfg.hasFault = true
	}

	algos := strings.Split(p.algos, ",")
	for i := range algos {
		algos[i] = strings.TrimSpace(algos[i])
	}
	allSeeds := make([]int64, p.seeds)
	for s := range allSeeds {
		allSeeds[s] = int64(s)
	}

	var specs []cellSpec
	switch p.axis {
	case "d":
		g := mathx.GreedyBound(p.n)
		for dd := 0; dd <= g+1; dd++ {
			for _, al := range algos {
				if al != "periodic" && al != "lazy" {
					continue
				}
				label, err := algoLabel(al, dd)
				if err != nil {
					return nil, cfg, "", err
				}
				specs = append(specs, cellSpec{
					axisVal: strconv.Itoa(dd), algo: al, label: label, n: p.n, d: dd, seeds: allSeeds,
				})
			}
		}
	case "n":
		for _, ns := range strings.Split(p.ns, ",") {
			nn, err := strconv.Atoi(strings.TrimSpace(ns))
			if err != nil {
				return nil, cfg, "", badFlag("-ns entry %q: %v", ns, err)
			}
			if _, err := cli.MakeHost(p.topo, nn); err != nil {
				return nil, cfg, "", badFlag("-ns entry %d: %v", nn, err)
			}
			for _, al := range algos {
				label, err := algoLabel(al, p.d)
				if err != nil {
					return nil, cfg, "", err
				}
				specs = append(specs, cellSpec{
					axisVal: strconv.Itoa(nn), algo: al, label: label, n: nn, d: p.d, seeds: allSeeds,
				})
			}
		}
	case "seed":
		for s := 0; s < p.seeds; s++ {
			for _, al := range algos {
				label, err := algoLabel(al, p.d)
				if err != nil {
					return nil, cfg, "", err
				}
				specs = append(specs, cellSpec{
					axisVal: strconv.Itoa(s), algo: al, label: label, n: p.n, d: p.d, seeds: []int64{int64(s)},
				})
			}
		}
	default:
		return nil, cfg, "", badFlag("unknown axis %q (want d|n|seed)", p.axis)
	}
	if len(specs) == 0 {
		return nil, cfg, "", badFlag("sweep is empty: axis %q with algorithms %q produces no cells", p.axis, p.algos)
	}

	fingerprint := fmt.Sprintf("sweep axis=%s n=%d ns=%s d=%d algos=%s workload=%s topology=%s seeds=%d events=%d faults=%q",
		p.axis, p.n, p.ns, p.d, p.algos, p.wl, p.topo, p.seeds, p.events, faultText)
	return specs, cfg, fingerprint, nil
}

// algoLabel validates an algorithm name and returns its display label.
func algoLabel(algo string, d int) (string, error) {
	scratch, err := cli.MakeHost("tree", 2)
	if err != nil {
		return "", badFlag("%v", err)
	}
	if _, err := cli.MakeAllocator(scratch.Tree(), algo, max(d, 0), 0); err != nil {
		return "", badFlag("%v", err)
	}
	switch algo {
	case "greedy":
		return "A_G", nil
	case "basic":
		return "A_B", nil
	case "constant":
		return "A_C", nil
	case "periodic":
		return fmt.Sprintf("A_M(d=%d)", d), nil
	case "lazy":
		return fmt.Sprintf("A_M-lazy(d=%d)", d), nil
	case "random":
		return "A_Rand", nil
	case "twochoice":
		return "A_2choice", nil
	case "randtie":
		return "A_Grand-tie", nil
	}
	return algo, nil
}

func headers(p params, cfg config) []string {
	h := []string{p.axis, "algorithm", "mean ratio", "max ratio", "mean reallocs", "mean migr", "mean mig hops"}
	if cfg.hasFault {
		h = append(h, "mean forced migr", "mean forced hops")
	}
	return h
}

// runCell runs one cell's seeds and returns the formatted table row.
func runCell(spec cellSpec, cfg config) ([]string, error) {
	var ratios []float64
	var reallocs, migr, forced float64
	var migHops, forcedHops float64
	var src fault.Source
	if cfg.hasFault {
		if err := cfg.faults.Validate(spec.n); err != nil {
			return nil, fmt.Errorf("fault schedule invalid for N=%d: %w", spec.n, err)
		}
	}
	for _, seed := range spec.seeds {
		seq, err := cli.MakeWorkload(cfg.workload, cli.WorkloadSpec{
			N: spec.n, Arrivals: cfg.events, Events: cfg.events, Sessions: cfg.events / 10, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		host, err := cli.MakeHost(cfg.topology, spec.n)
		if err != nil {
			return nil, err
		}
		a, err := cli.MakeAllocator(host.Tree(), spec.algo, spec.d, seed)
		if err != nil {
			return nil, err
		}
		if cfg.hasFault {
			if _, ok := a.(core.FaultTolerant); !ok {
				return nil, fmt.Errorf("algorithm %s does not support fault injection", spec.label)
			}
			src = cfg.faults.Source()
		}
		res := sim.Run(a, seq, sim.Options{Faults: src, Host: host})
		if res.LStar > 0 {
			ratios = append(ratios, res.Ratio)
		}
		reallocs += float64(res.Realloc.Reallocations)
		migr += float64(res.Realloc.Migrations)
		forced += float64(res.Forced.Migrations)
		migHops += float64(res.MigHops)
		forcedHops += float64(res.ForcedHops)
	}
	k := float64(len(spec.seeds))
	values := []any{spec.axisVal, spec.label,
		stats.Mean(ratios), stats.Max(ratios), reallocs / k, migr / k, migHops / k}
	if cfg.hasFault {
		values = append(values, forced/k, forcedHops/k)
	}
	return formatRow(values), nil
}

// formatRow renders values exactly as report.Table.AddRowf would, by
// round-tripping through a scratch table, so checkpointed rows and live
// rows are byte-identical.
func formatRow(values []any) []string {
	scratch := report.Table{Headers: make([]string, len(values))}
	scratch.AddRowf(values...)
	return scratch.Rows[0]
}

func buildTable(p params, cfg config, specs []cellSpec, rows [][]string) *report.Table {
	tab := &report.Table{
		Caption: fmt.Sprintf("sweep over %s — workload %s, topology %s", p.axis, p.wl, p.topo),
		Headers: headers(p, cfg),
	}
	if cfg.hasFault {
		tab.Caption += fmt.Sprintf(" — faults: %d events", len(cfg.faults.Events))
	}
	for i, row := range rows {
		if row == nil {
			// Failed cell: keep the table shape, mark the values.
			row = []string{specs[i].axisVal, specs[i].label}
			for len(row) < len(tab.Headers) {
				row = append(row, "error")
			}
		}
		tab.AddRow(row...)
	}
	return tab
}
