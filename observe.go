package partalloc

import "partalloc/internal/obs"

// Metrics is a lock-cheap registry of counters, gauges, and log-bucketed
// latency histograms, renderable in Prometheus text exposition format
// with WritePrometheus. Build one with NewMetrics, attach it to engines
// with WithMetrics, and serve it however you like (cmd/engined -listen
// mounts it at /metrics). One registry may back many engines; all
// methods are safe for concurrent use. docs/OBSERVABILITY.md inventories
// the series the engine records.
type Metrics = obs.Metrics

// FlightRecorder is a fixed-size ring of recent structured engine events
// (batch applies, sheds, degrade transitions, breaker activity, forced
// fault migrations, journal lifecycle), dumpable as JSONL with
// WriteJSONL. Attach one with WithFlightRecorder; pair it with
// WithPoisonDump to capture the run-up to a failure automatically.
type FlightRecorder = obs.FlightRecorder

// FlightEvent is one entry in a FlightRecorder dump.
type FlightEvent = obs.Event

// NewMetrics builds an empty metrics registry for WithMetrics. This is
// the blessed constructor: the partlint obsbless check forbids reaching
// into the internal registry from elsewhere.
func NewMetrics() *Metrics { return obs.NewMetrics() }
