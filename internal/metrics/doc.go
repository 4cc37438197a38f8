// Package metrics is the repository's runtime-telemetry layer: the one
// registry every operational counter reports through.
//
// Registry holds process-lifetime Counters, Gauges and Histograms
// (plus label-vector variants) with lock-free atomic updates, and
// renders them in the Prometheus text exposition format (hand-rolled;
// no dependencies) via WriteText or as an http.Handler — the body of
// lruleakd's GET /metrics. Registering a name again returns the same
// series, so a test reads an instrument back by re-registering it.
//
// Simulator cache counters do not pass through this package: they live
// in cache.Stats, whose MissRate is the one miss-rate definition that
// perfctr reports and internal/detect thresholds on.
package metrics
