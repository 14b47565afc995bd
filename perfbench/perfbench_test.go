package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"partalloc"
	"partalloc/internal/invariant"
)

// toyScale shrinks every stream so a whole run takes a fraction of a
// second.
const toyScale = 0.02

// benchmarkFile is the part of ../BENCHMARK.json the tests compare the
// code against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, code)
	}
	check := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(file), len(defs))
			return
		}
		for i, m := range file {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			rep, err := run(config{workload: w.name, seed: 7, seconds: 0.01, trace: traced, workdir: t.TempDir(), scale: toyScale})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			out := rep.out
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, traced, out.Correct, out.Failed, out.Attempted)
			}
			var got, exp []string
			for name := range out.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				exp = append(exp, m.Name)
				if v := out.Metrics[m.Name]; v.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.name, traced, m.Name, v.Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, traced, got, exp)
			}
		}
	}
}

// toyRound runs one passing round of a workload at toy scale.
func toyRound(t *testing.T, name string) (*runner, *roundResult) {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(w, w.generate(11, toyScale), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.round(0, false)
	if err != nil {
		t.Fatalf("%s: clean round fails: %v", name, err)
	}
	return r, res
}

// doctored copies res deeply enough that mutating the copy leaves res
// intact.
func doctored(res *roundResult, mutate func(*roundResult)) *roundResult {
	c := *res
	c.stats = append([]partalloc.EngineTenantStats(nil), res.stats...)
	c.recovered = append([]partalloc.EngineTenantStats(nil), res.recovered...)
	c.shardStats = append([]partalloc.EngineShardStats(nil), res.shardStats...)
	c.rebalance.Violations = append([]invariant.Violation(nil), res.rebalance.Violations...)
	c.routes = make(map[string]int, len(res.routes))
	for k, v := range res.routes {
		c.routes[k] = v
	}
	mutate(&c)
	return &c
}

func TestGatesRejectDoctoredResults(t *testing.T) {
	cases := []struct {
		workload, what string
		mutate         func(*roundResult)
	}{
		{"journal-ingest", "tampered recovered ledger", func(r *roundResult) { r.recovered[3].PeakLoad++ }},
		{"journal-ingest", "recovered tenant lost an event", func(r *roundResult) { r.recovered[0].Events-- }},
		{"journal-ingest", "ledger differs from the first round", func(r *roundResult) {
			r.stats[1].Batches++
			r.recovered[1].Batches++
		}},
		{"realloc-submit", "migration count off by one", func(r *roundResult) { r.stats[2].Realloc.Migrations++ }},
		{"realloc-submit", "migration hops off by one", func(r *roundResult) { r.stats[5].MigHops++ }},
		{"realloc-submit", "peak load differs from the serial run", func(r *roundResult) { r.stats[0].PeakLoad++ }},
		{"skew-rebalance", "dropped event", func(r *roundResult) { r.stats[7].Events-- }},
		{"skew-rebalance", "event left queued", func(r *roundResult) { r.stats[7].Queued++ }},
		{"skew-rebalance", "rebalance violation", func(r *roundResult) {
			r.rebalance.Violations = append(r.rebalance.Violations, invariant.Violation{Rule: "route-bijection", Detail: "doctored"})
		}},
		{"skew-rebalance", "tenant without a route", func(r *roundResult) { delete(r.routes, "t05") }},
		{"skew-rebalance", "route to a missing shard", func(r *roundResult) { r.routes["t05"] = 99 }},
		{"skew-rebalance", "tenant resident on two shards", func(r *roundResult) { r.shardStats[0].Tenants++ }},
	}
	rounds := map[string]*roundResult{}
	runners := map[string]*runner{}
	for _, c := range cases {
		if rounds[c.workload] == nil {
			runners[c.workload], rounds[c.workload] = toyRound(t, c.workload)
		}
		r, res := runners[c.workload], rounds[c.workload]
		if err := r.check(res); err != nil {
			t.Fatalf("%s: clean result rejected: %v", c.workload, err)
		}
		if err := r.check(doctored(res, c.mutate)); err == nil {
			t.Errorf("%s: %s passed every gate", c.workload, c.what)
		} else {
			t.Logf("%s: %s: %v", c.workload, c.what, err)
		}
	}
}

// TestEveryFlushApplies walks each client's plan through the engine's
// batching rule: a Flush that found an empty queue would be a no-op call
// timed among the applying ones.
func TestEveryFlushApplies(t *testing.T) {
	for _, w := range workloads {
		for _, scale := range []float64{toyScale, 1} {
			f := w.generate(3, scale)
			for c := 0; c < clients; c++ {
				queued := make([]int, len(f.streams))
				flushes := 0
				for k, cl := range w.schedule(f, c) {
					if cl.evs != nil {
						queued[cl.tenant] = (queued[cl.tenant] + len(cl.evs)) % w.batch
						continue
					}
					if queued[cl.tenant] == 0 {
						t.Fatalf("%s scale %g client %d: call %d flushes %s with nothing queued", w.name, scale, c, k, f.ids[cl.tenant])
					}
					queued[cl.tenant] = 0
					flushes++
				}
				for i, q := range queued {
					if q != 0 {
						t.Errorf("%s scale %g: %s ends with %d events queued", w.name, scale, f.ids[i], q)
					}
				}
				if w.flushEvery > 0 && scale == 1 && flushes <= len(f.streams)/clients {
					t.Errorf("%s scale %g client %d: %d flushes, no more than one per tenant", w.name, scale, c, flushes)
				}
			}
		}
	}
}

func TestParseFlagsRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "journal-ingest", "--trace", "2"},
		{"--workload", "journal-ingest", "--seconds", "0"},
		{"--workload", "journal-ingest", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
	if _, err := run(config{workload: "no-such", seconds: 1, scale: 1}); err == nil {
		t.Error("run accepted an unknown workload")
	}
}
