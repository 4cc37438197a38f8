// Package service is the leakage-analysis job server behind
// cmd/lruleakd: a long-running HTTP/JSON front end over the same
// experiment drivers the one-shot CLIs call.
//
// A client POSTs an experiment spec — an attack sweep (the
// victim × policy × defense matrix), a transport stream sweep, or a
// detection ROC sweep — as JSON. The server validates the spec up
// front with field-level errors (a bad spec is a 400, never a panic
// deep inside a cache constructor), then runs it as a job: cells are
// sharded across one persistent engine.Pool shared by every job, so
// the pool's size bounds the daemon's concurrency, and per-cell
// progress (the engine's Event stream) is recorded and streamable
// while the grid runs.
//
// Jobs are content-addressed: the key hashes ResultsVersion, the kind,
// the seed and the normalized spec (names canonical, defaults applied,
// so two spellings of one grid collide), and identical submissions
// deduplicate onto one job whose finished report is the cache entry.
// This is sound because of the engine's determinism contract — the
// same (spec, seed) produces byte-identical output at any worker
// count, on any machine — which is also what makes the CLI goldens
// under testdata/ the service's conformance suite: the server renders
// its reports through the same lruleak.Render* functions the CLIs
// use, so a server-side attack/stream/ROC run is pinned byte-for-byte
// by the existing golden files.
//
// Daemon safety rests on the engine's panic containment: a job whose
// cell panics fails that job alone (the panic is recovered per cell,
// siblings keep their results, and the re-raise is caught at the job
// boundary), and a client disconnect or shutdown cancels the job's
// context, aborting its grid at cell boundaries without touching other
// jobs' work.
package service
