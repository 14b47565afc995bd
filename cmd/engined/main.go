// Command engined is the allocation engine's serving demo: it builds one
// journaled engine with a metrics registry and a flight recorder,
// replays a small multi-tenant Poisson fleet through it, and serves the
// engine's observability endpoints until interrupted.
//
// Usage:
//
//	engined -listen ADDR
//
// The fleet is 8 A_Rand tenants on N=64 machines, 600 Poisson arrivals
// each, journaled with batched fsync into a temporary directory that is
// removed on exit. Once the fleet is applied, engined prints
//
//	engined: serving observability endpoints on http://ADDR — interrupt to exit
//
// and serves (docs/OBSERVABILITY.md):
//
//	/metrics          Prometheus text exposition of the engine's registry
//	/debug/vars       expvar (Go runtime memstats and cmdline)
//	/debug/pprof/     the standard pprof index, profile, trace, ...
//	/debug/flightrec  the engine's flight recorder as JSONL
//
// SIGINT during the replay exits 130, like every other runner in this
// repo; SIGINT while serving exits 0. The repository's benchmark is
// perfbench (perfbench/README.md), not this command.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"partalloc"
	"partalloc/internal/cli"
)

const (
	fleetTenants  = 8
	fleetN        = 64
	fleetArrivals = 600
)

func main() {
	listen := flag.String("listen", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/flightrec on this address (required)")
	flag.Parse()
	if *listen == "" {
		fmt.Fprintln(os.Stderr, "engined: -listen ADDR is required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := cli.WithInterrupt(context.Background(), func() {
		fmt.Fprintln(os.Stderr, "engined: interrupt — shutting down")
	})
	defer stop()
	if err := run(ctx, *listen); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "engined: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "engined:", err)
		os.Exit(1)
	}
}

// run builds and feeds the engine, then serves its endpoints on addr
// until ctx is done.
func run(ctx context.Context, addr string) error {
	dir, err := os.MkdirTemp("", "engined-journal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	metrics := partalloc.NewMetrics()
	eng, err := partalloc.NewEngine(
		partalloc.WithJournal(dir), partalloc.WithJournalSync(partalloc.JournalSyncBatched),
		partalloc.WithMetrics(metrics), partalloc.WithFlightRecorder(4096))
	if err != nil {
		return err
	}
	defer eng.Close()

	m := partalloc.MustNewMachine(fleetN)
	streams := make(map[string][]partalloc.Event, fleetTenants)
	for i := 0; i < fleetTenants; i++ {
		id, seed := fmt.Sprintf("tenant-%02d", i), int64(1+i)
		if err := eng.AddTenant(id, partalloc.AlgoRandom, m, partalloc.WithSeed(seed)); err != nil {
			return err
		}
		streams[id] = partalloc.PoissonWorkload(partalloc.WorkloadConfig{
			N: fleetN, Arrivals: fleetArrivals, Seed: seed,
		}).Events
	}
	if err := eng.Replay(ctx, streams); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: obsMux(metrics, eng.FlightRecorder())}
	go func() {
		<-ctx.Done()
		_ = srv.Close()
	}()
	// scripts/obs-smoke.sh waits for this line before scraping.
	fmt.Fprintf(os.Stderr, "engined: serving observability endpoints on http://%s — interrupt to exit\n", ln.Addr())
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// obsMux routes the observability endpoints listed in the package doc.
func obsMux(metrics *partalloc.Metrics, fr *partalloc.FlightRecorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = fr.WriteJSONL(w)
	})
	return mux
}
