package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"repro"
)

// Experiment kinds accepted by the server. Each maps onto one of the
// root package's evaluation grids (sweep.go) and its renderer.
const (
	KindAttack = "attack" // lruleak.AttackSweep → RenderAttackSweep
	KindStream = "stream" // lruleak.StreamSweep → RenderStreamSweep
	KindROC    = "roc"    // lruleak.ROCSweep → RenderROC
)

// Kinds lists the accepted experiment kinds.
func Kinds() []string { return []string{KindAttack, KindStream, KindROC} }

// Spec is the submission schema of POST /v1/jobs: an experiment kind,
// the root seed the whole grid derives its randomness from, and the
// kind's spec section. The sections are the root package's sweep
// specs, whose json tags are the wire schema: every dimension is named
// with the string the CLI flags accept (victim, policy, defense,
// probe, schedule, CPU and codec names), and omitted dimensions take
// the documented sweep defaults. A nil section is the fully-defaulted
// grid of its kind.
type Spec struct {
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`

	// DeadlineMS, when positive, bounds the job's wall-clock execution
	// in milliseconds: if the grid has not finished by then, the run is
	// cancelled at its next cell boundary and the job finishes in the
	// distinct deadline_exceeded state. The server's -max-job-wall flag
	// caps (and defaults) this. A deadline is an execution budget, not
	// part of the experiment, so it is deliberately EXCLUDED from the
	// content key — two submissions differing only in deadline name the
	// same result, and a submission may join an in-flight job that was
	// queued under a different deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	Attack *lruleak.AttackSpec `json:"attack,omitempty"`
	Stream *lruleak.StreamSpec `json:"stream,omitempty"`
	ROC    *lruleak.ROCSpec    `json:"roc,omitempty"`
}

// ResultsVersion is part of every content key. Bump it whenever a
// change alters a report any job kind renders, so a daemon restarted on
// an old store recomputes instead of serving the stale report.
// TestResultsVersionPinsGoldens fails until the bump is made.
const ResultsVersion = 1

// keyPayload is what the content address covers: the results version,
// the kind, the seed, and the validated grid with defaults applied.
// compile has already rewritten every name to its canonical spelling,
// so spellings of one grid share one cache entry. The lruleak spec
// types marshal deterministically (fixed struct field order, no maps).
// ROC thresholds travel as strings because the defaulted grid contains
// +Inf (the monitor-off point), which JSON cannot encode as a number.
type keyPayload struct {
	Version       int                 `json:"v"`
	Kind          string              `json:"kind"`
	Seed          uint64              `json:"seed"`
	Attack        *lruleak.AttackSpec `json:"attack,omitempty"`
	Stream        *lruleak.StreamSpec `json:"stream,omitempty"`
	ROC           *lruleak.ROCSpec    `json:"roc,omitempty"`
	ROCThresholds []string            `json:"rocThresholds,omitempty"`
}

// key returns the job's content address: hex SHA-256 of the keyPayload
// of a spec compile returned. Determinism makes this a result address
// too — the finished report is a pure function of the key.
func (sp *Spec) key() string {
	p := keyPayload{Version: ResultsVersion, Kind: sp.Kind, Seed: sp.Seed}
	switch sp.Kind {
	case KindAttack:
		a := sp.Attack.WithDefaults()
		p.Attack = &a
	case KindStream:
		st := sp.Stream.WithDefaults()
		p.Stream = &st
	case KindROC:
		r := sp.ROC.WithDefaults()
		p.ROCThresholds = make([]string, len(r.Thresholds))
		for i, th := range r.Thresholds {
			p.ROCThresholds[i] = strconv.FormatFloat(th, 'g', -1, 64)
		}
		r.Thresholds = nil
		p.ROC = &r
	}
	raw, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("service: content key marshal: %v", err)) // plain structs always marshal
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// run executes a spec compile returned through the engine with the
// given options (the server passes its persistent pool, the job context
// and the progress recorder) and renders the report with the same
// renderers the CLIs use — which is what lets testdata/*.golden pin
// the service's output byte-for-byte.
func (sp *Spec) run(opt lruleak.RunOptions) string {
	switch sp.Kind {
	case KindAttack:
		return lruleak.RenderAttackSweep(lruleak.AttackSweep(*sp.Attack, sp.Seed, opt))
	case KindStream:
		return lruleak.RenderStreamSweep(lruleak.StreamSweep(*sp.Stream, sp.Seed, opt))
	case KindROC:
		return lruleak.RenderROC(lruleak.ROCSweep(*sp.ROC, sp.Seed, opt))
	}
	panic(fmt.Sprintf("service: unvalidated kind %q reached run", sp.Kind))
}
