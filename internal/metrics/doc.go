// Package metrics is the repository's runtime-telemetry layer: the one
// registry every operational counter reports through, and the named
// event surface that reads it.
//
// # Runtime telemetry
//
// Registry holds process-lifetime Counters, Gauges and Histograms
// (plus label-vector variants) with lock-free atomic updates, and
// renders them in the Prometheus text exposition format (hand-rolled;
// no dependencies) via WriteText or as an http.Handler — the body of
// lruleakd's GET /metrics.
//
// # Named events
//
// A Source exports a flat set of named events. A Registry is itself a
// Source: every series it holds is exported as an event (label values
// dot-joined and sanitized onto [A-Za-z0-9_]; histograms as name.count
// and name.sum), and Snapshot materializes any Source into an EventSet
// that tests and benchmarks read by name.
//
// Simulator cache counters do not pass through this package: they live
// in cache.Stats, whose MissRate is the one miss-rate definition that
// perfctr reports and internal/detect thresholds on.
package metrics
