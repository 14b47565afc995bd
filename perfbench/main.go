// Command perfbench is the repository's benchmark. It drives
// partalloc.Engine through its public API with a closed loop of two
// client goroutines over one of three workloads, checks every round's
// result against correctness gates, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, their timed figures
// scaled by the host probe (hostprobe.go); with --trace 1 a run alternates
// untraced and traced rounds and reports the per-layer ones. See README.md
// beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics, the ones a user of the engine
// sees.
var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"call_p50_us", "us"},
	{"call_p99_us", "us"},
	{"setup_s", "s"},
	{"load_ratio", "ratio"},
	{"alloc_bytes_per_event", "B/event"},
}

// perLayer are the traced run's metrics, one prefix per layer.
var perLayer = []metricDef{
	{"engine.calls", "count"},
	{"engine.batches", "count"},
	{"engine.events_per_batch", "events/batch"},
	{"engine.apply_p50_us", "us"},
	{"engine.apply_p99_us", "us"},
	{"engine.nonapply_us_per_call", "us"},
	{"engine.hot_shard_peak_queue", "events"},
	{"engine.shard_apply_skew", "ratio"},
	{"wal.appends", "count"},
	{"wal.bytes_per_event", "B/event"},
	{"wal.append_p50_us", "us"},
	{"wal.append_p99_us", "us"},
	{"wal.rotations", "count"},
	{"wal.replay_mb_per_s", "MB/s"},
	{"snapshot.taken", "count"},
	{"snapshot.bytes_mean", "B"},
	{"snapshot.segments_truncated", "count"},
	{"snapshot.encode_us", "us"},
	{"snapshot.restore_us", "us"},
	{"recovery.recover_s", "s"},
	{"recovery.records_scanned", "count"},
	{"recovery.records_skipped", "count"},
	{"recovery.records_replayed", "count"},
	{"recovery.snapshots_restored", "count"},
	{"core.apply_ns_per_event", "ns/event"},
	{"core.reallocations", "count"},
	{"core.migrations", "count"},
	{"core.mig_hops_per_event", "hops/event"},
	{"core.load_ratio_max", "ratio"},
	{"placement.passes", "count"},
	{"placement.planned", "count"},
	{"placement.moves", "count"},
	{"placement.passes_spread", "ratio"},
	{"placement.moves_spread", "ratio"},
	{"placement.pass_call_us", "us"},
	{"placement.pass_call_fraction", "fraction"},
	{"obs.tracing_overhead", "ratio"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	scale    float64 // multiplier on every stream's length; only tests shrink it
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c := config{scale: 1}
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload name: journal-ingest, realloc-submit or skew-rebalance")
	fs.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&c.seconds, "seconds", 30, "how long to keep running measured rounds")
	fs.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 runs traced rounds and reports per-layer metrics")
	fs.StringVar(&c.workdir, "workdir", ".bench_build/perfbench-run", "directory for journals, spans and flight-recorder dumps")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %v", fs.Args())
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace %d: want 0 or 1", trace)
	case !(c.seconds > 0):
		return c, fmt.Errorf("--seconds %v: want a positive duration", c.seconds)
	}
	c.trace = trace == 1
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg)
	rep.print(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to report:", err)
		rep.out.Correct, rep.out.Metrics = false, map[string]metric{}
	}
	line, jerr := json.Marshal(rep.out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result line plus the human-readable
// lines printed above it.
type report struct {
	out   output
	lines []string
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
}

// roundSummary keeps what the aggregation needs from a round, so the
// round's ledgers and latency samples can be dropped.
type roundSummary struct {
	traced   bool
	probeNs  float64
	e2e      map[string]float64
	calls    int
	beyond99 int
	batches  int64
	layer    map[string]float64
}

func summarize(f *fleet, res *roundResult) (roundSummary, error) {
	lat := sortedCopy(res.lat)
	p99 := quantile(lat, 0.99)
	var ratios []float64
	var batches int64
	for _, st := range res.stats {
		ratios = append(ratios, ratio(float64(st.PeakLoad), float64(st.LStar)))
		batches += st.Batches
	}
	s := roundSummary{
		traced:   res.traced,
		probeNs:  float64(res.probeNs),
		calls:    len(lat),
		beyond99: beyond(lat, p99),
		batches:  batches,
		e2e: map[string]float64{
			"events_per_s":          float64(f.events) / (float64(res.wallNs) / 1e9),
			"call_p50_us":           float64(quantile(lat, 0.50)) / 1e3,
			"call_p99_us":           float64(p99) / 1e3,
			"setup_s":               float64(res.setupNs) / 1e9,
			"load_ratio":            mean(ratios),
			"alloc_bytes_per_event": float64(res.allocBytes) / float64(f.events),
		},
	}
	if res.traced {
		layer, err := layerMetrics(res)
		if err != nil {
			return s, err
		}
		s.layer = layer
	}
	return s, nil
}

// run generates the workload's inputs, then runs rounds until cfg.seconds
// have passed (and at least minRounds of each kind ran), and aggregates
// them. On a failed call or gate the report carries correct=false, no
// metrics, and the error.
func run(cfg config) (*report, error) {
	rep := &report{out: output{Metrics: map[string]metric{}}}
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return rep, err
	}
	rep.linef("perfbench workload=%s seed=%d seconds=%g trace=%v", w.name, cfg.seed, cfg.seconds, cfg.trace)
	rep.linef("go=%s GOMAXPROCS=%d NumCPU=%d clients(nproc)=%d closed-loop", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clients)

	scratch := filepath.Join(cfg.workdir, fmt.Sprintf("journals-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return rep, err
	}
	defer os.RemoveAll(scratch)

	f := w.generate(cfg.seed, cfg.scale)
	r, err := newRunner(w, f, scratch)
	if err != nil {
		return rep, err
	}
	calls := len(r.plans[0]) + len(r.plans[1])
	rep.linef("fleet: %d tenants, %d events and %d calls per round", len(f.ids), f.events, calls)

	const minRounds = 3
	var sums []roundSummary
	untraced, traced := 0, 0
	start := time.Now()
	for k := 0; ; k++ {
		tracedRound := cfg.trace && k%2 == 1
		res, err := r.round(k, tracedRound)
		if res != nil {
			rep.out.Attempted += res.attempted
			rep.out.Failed += res.failed
		}
		if err != nil {
			return rep, fmt.Errorf("round %d: %w", k, err)
		}
		s, err := summarize(f, res)
		if err != nil {
			return rep, err
		}
		sums = append(sums, s)
		if tracedRound {
			traced++
		} else {
			untraced++
		}
		enough := untraced >= minRounds && (!cfg.trace || traced >= minRounds)
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	rep.linef("rounds: %d untraced, %d traced, %.1f s", untraced, traced, time.Since(start).Seconds())

	e2e := aggregate(sums, false, func(s roundSummary) map[string]float64 { return s.e2e })
	probe := median(roundValues(sums, false, func(s roundSummary) float64 { return s.probeNs }))
	scaled := scaleToNominal(e2e, probe/probeNominalNs)
	noteEndToEnd(rep, sums, e2e, scaled, probe, untraced, calls, f.events)
	defs, values := endToEnd, scaled
	if cfg.trace {
		layer := aggregate(sums, true, func(s roundSummary) map[string]float64 { return s.layer })
		tracedE2E := aggregate(sums, true, func(s roundSummary) map[string]float64 { return s.e2e })
		layer["obs.tracing_overhead"] = ratio(tracedE2E["events_per_s"], e2e["events_per_s"])
		passes := roundValues(sums, true, func(s roundSummary) float64 { return s.layer["placement.passes"] })
		moves := roundValues(sums, true, func(s roundSummary) float64 { return s.layer["placement.moves"] })
		layer["placement.passes_spread"] = relSpread(passes)
		layer["placement.moves_spread"] = relSpread(moves)
		if layer["snapshot.encode_us"], layer["snapshot.restore_us"], err = probeCodec(w, f, r.tr); err != nil {
			return rep, err
		}
		if err := writeTraceFiles(rep, cfg, r); err != nil {
			return rep, err
		}
		rep.linef("per-layer: median over %d traced rounds; apply percentiles over %d batches per round; "+
			"placement passes %g–%g and moves %g–%g per round", traced, sums[1].batches,
			slices.Min(passes), slices.Max(passes), slices.Min(moves), slices.Max(moves))
		defs, values = perLayer, layer
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s has no finite value (%v)", d.name, v)
		}
		rep.out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		rep.linef("  %-30s %14.6g %s", d.name, v, d.unit)
	}
	rep.linef("calls: %d failed of %d attempted", rep.out.Failed, rep.out.Attempted)
	rep.out.Correct = true
	return rep, nil
}

// aggregate takes, for each metric, the median over the traced or the
// untraced rounds.
func aggregate(sums []roundSummary, traced bool, pick func(roundSummary) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range sums {
		if s.traced != traced {
			continue
		}
		for k, v := range pick(s) {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// roundValues picks one figure from each traced or untraced round.
func roundValues(sums []roundSummary, traced bool, pick func(roundSummary) float64) []float64 {
	var out []float64
	for _, s := range sums {
		if s.traced == traced {
			out = append(out, pick(s))
		}
	}
	return out
}

// scaleToNominal returns e2e with its timed figures scaled to a host on
// which the probe takes probeNominalNs, slow by the given factor: a host
// twice as slow halves a rate and doubles a time.
func scaleToNominal(e2e map[string]float64, slow float64) map[string]float64 {
	out := maps.Clone(e2e)
	out["events_per_s"] *= slow
	for _, k := range []string{"call_p50_us", "call_p99_us", "setup_s"} {
		out[k] /= slow
	}
	return out
}

// noteEndToEnd prints how each end-to-end figure was formed and the
// samples behind it, with the timed ones both as measured and as scaled.
func noteEndToEnd(rep *report, sums []roundSummary, raw, scaled map[string]float64, probe float64, rounds, calls int, events int64) {
	minBeyond := math.MaxInt
	for _, s := range sums {
		if !s.traced {
			minBeyond = min(minBeyond, s.beyond99)
		}
	}
	rep.linef("end-to-end (untraced rounds; each figure is the median over %d rounds):", rounds)
	rep.linef("  host probe %.6g us (nominal %g us): timed figures below are scaled by %.4f, the measured value in brackets",
		probe/1e3, probeNominalNs/1e3, probeNominalNs/probe)
	rep.linef("  events_per_s %.6g events/s (%.6g): %d events per round / measured wall time", scaled["events_per_s"], raw["events_per_s"], events)
	rep.linef("  call_p50_us %.6g us (%.6g), call_p99_us %.6g us (%.6g): %d Submit/Flush calls per round, at least %d samples beyond p99 in every round",
		scaled["call_p50_us"], raw["call_p50_us"], scaled["call_p99_us"], raw["call_p99_us"], calls, minBeyond)
	rep.linef("  setup_s %.6g s (%.6g): NewEngine + journal open + AddTenant per round", scaled["setup_s"], raw["setup_s"])
	rep.linef("  load_ratio %.6g: mean over tenants of PeakLoad/L*, the same in every round", raw["load_ratio"])
	rep.linef("  alloc_bytes_per_event %.6g B/event: Go heap allocated during the measured phase / events", raw["alloc_bytes_per_event"])
}

// writeTraceFiles writes the traced rounds' spans and the last traced
// round's flight recorder under the work directory.
func writeTraceFiles(rep *report, cfg config, r *runner) error {
	base := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	spans := filepath.Join(cfg.workdir, "spans-"+base+".jsonl")
	if err := r.tr.writeJSONL(spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.linef("spans: %d kept, %d dropped, written to %s", len(r.tr.spans), r.tr.dropped, spans)
	if r.flight == nil {
		return errors.New("traced rounds left no flight recorder")
	}
	path := filepath.Join(cfg.workdir, "flightrec-"+base+".jsonl")
	fr, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.flight.WriteJSONL(fr); err != nil {
		fr.Close()
		return fmt.Errorf("write flight recorder: %w", err)
	}
	rep.linef("flight recorder: last %d events of the last traced round written to %s", r.flight.Len(), path)
	return fr.Close()
}
