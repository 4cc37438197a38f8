package service

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro"
	"repro/internal/replacement"
	"repro/internal/transport"
	"repro/internal/transport/codec"
	"repro/internal/victim"
)

// FieldError locates one validation failure in the submitted spec.
type FieldError struct {
	Field   string `json:"field"`
	Message string `json:"message"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Message }

// errs collects field errors during compilation.
type errs struct{ list []FieldError }

func (e *errs) add(field, format string, args ...any) {
	e.list = append(e.list, FieldError{Field: field, Message: fmt.Sprintf(format, args...)})
}

// compile validates a submitted spec and returns it ready to key and
// run: its kind's section is present, and every policy, defense, probe,
// schedule and CPU name is rewritten to its canonical spelling, so
// alias spellings ("d1" and "d=1", "treeplru" and "Tree-PLRU") share
// one content key. It is the daemon's line of defense against the
// constructor panics the one-shot CLIs are allowed to die on (cache.New
// on a non-power-of-two set count or zero ways, victim.NewTTable on too
// few sets, transport.DefaultLanes on too many lanes): every name and
// every numeric bound is checked here, with a field-level message,
// before any simulator object exists. A non-empty error list means a
// 400 — the spec never reaches the engine.
func compile(sp Spec) (*Spec, []FieldError) {
	var e errs
	if sp.DeadlineMS < 0 {
		e.add("deadline_ms", "must be >= 0 (0 = no per-job deadline)")
	}
	var foreign bool // a section of another kind is present
	switch sp.Kind {
	case KindAttack:
		foreign = sp.Stream != nil || sp.ROC != nil
		a := *cmp.Or(sp.Attack, new(lruleak.AttackSpec))
		checkAttack(&a, &e)
		sp.Attack = &a
	case KindStream:
		foreign = sp.Attack != nil || sp.ROC != nil
		sp.Stream = cmp.Or(sp.Stream, new(lruleak.StreamSpec))
		checkStream(*sp.Stream, &e)
	case KindROC:
		foreign = sp.Attack != nil || sp.Stream != nil
		r := *cmp.Or(sp.ROC, new(lruleak.ROCSpec))
		checkROC(&r, &e)
		sp.ROC = &r
	default:
		e.add("kind", "unknown kind %q (valid: %s)", sp.Kind, strings.Join(Kinds(), ", "))
	}
	if foreign {
		e.add("kind", "kind %q takes only the %q section", sp.Kind, sp.Kind)
	}
	if len(e.list) > 0 {
		return nil, e.list
	}
	return &sp, nil
}

// canon checks each name with its parser and returns the names in the
// parser's String spelling, recording a field error per unknown name.
func canon[T fmt.Stringer](e *errs, field string, names []string, parse func(string) (T, error)) []string {
	if names == nil {
		return nil
	}
	out := make([]string, len(names))
	for i, name := range names {
		v, err := parse(name)
		if err != nil {
			e.add(fmt.Sprintf("%s[%d]", field, i), "%v", err)
			continue
		}
		out[i] = v.String()
	}
	return out
}

// nonNegative bounds the per-cell cost knobs: negative values are
// nonsense and huge ones would let one spec monopolize the daemon.
func nonNegative(e *errs, field string, v, max int) {
	if v < 0 {
		e.add(field, "must be >= 0")
	} else if v > max {
		e.add(field, "%d exceeds the service cap of %d", v, max)
	}
}

func checkAttack(a *lruleak.AttackSpec, e *errs) {
	a.Policies = canon(e, "attack.policies", a.Policies, replacement.ParseKind)
	a.Defenses = canon(e, "attack.defenses", a.Defenses, lruleak.AttackDefenseByName)
	a.Probes = canon(e, "attack.probes", a.Probes, lruleak.AttackProbeByName)
	a.Schedules = canon(e, "attack.schedules", a.Schedules, lruleak.AttackScheduleByName)
	a.Profiles = slices.Clone(a.Profiles) // rewritten in place; the caller's array stays as submitted
	var profiles []lruleak.Profile
	for i := range a.Profiles {
		if prof, ok := checkProfile(&a.Profiles[i], fmt.Sprintf("attack.profiles[%d]", i), e); ok {
			profiles = append(profiles, prof)
		}
	}
	// Victims are validated against every profile geometry they will
	// run on (the sweep pairs each victim with each profile), using the
	// same constructor AttackSweep calls — reused, not reimplemented.
	// When the spec omits victims, the sweep will default to all of
	// them, so the defaults are what must survive the geometry: a legal
	// power-of-two set count can still be too small for a victim
	// (ttable needs 16 sets), and that must be a 400 here, not a panic
	// in the sweep.
	if len(profiles) == 0 {
		profiles = []lruleak.Profile{lruleak.SandyBridge()}
	}
	victims := a.Victims
	defaulted := len(victims) == 0
	if defaulted {
		victims = victim.Names()
	}
	for i, name := range victims {
		field := fmt.Sprintf("attack.victims[%d]", i)
		if defaulted {
			field = "attack.victims"
		}
		for _, prof := range profiles {
			if err := tryVictim(name, prof.L1Sets); err != nil {
				e.add(field, "%q on %s (%d L1 sets): %v", name, prof.Arch, prof.L1Sets, err)
				break
			}
		}
	}
	nonNegative(e, "attack.symbols", a.Symbols, 1024)
	nonNegative(e, "attack.votes", a.Votes, 1024)
	nonNegative(e, "attack.profilingRounds", a.ProfilingRounds, 1024)
	nonNegative(e, "attack.trials", a.Trials, 1024)
}

// tryVictim probes a (victim, set count) pairing through the same
// constructor the sweeps use. Some constructors report an impossible
// geometry by panicking (victim.NewTTable on < 16 sets) rather than
// returning an error; here both become a validation error.
func tryVictim(name string, sets int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	_, err = victim.ByName(name, sets)
	return err
}

// checkProfile resolves a CPU profile reference, enforcing the
// invariants cache.New would otherwise panic on: a positive
// power-of-two set count and at least one way. It rewrites the
// reference canonically: the profile's Arch name, and no override that
// repeats the profile's own geometry.
func checkProfile(r *lruleak.ProfileRef, field string, e *errs) (lruleak.Profile, bool) {
	base, err := lruleak.ProfileByName(r.CPU)
	if err != nil {
		e.add(field+".cpu", "%v", err)
		return base, false
	}
	ok := true
	if n := r.L1Sets; n != nil && (*n < 1 || *n&(*n-1) != 0) {
		e.add(field+".l1Sets", "%d is not a positive power of two", *n)
		ok = false
	}
	if n := r.L1Ways; n != nil && *n < 1 {
		e.add(field+".l1Ways", "%d ways; a cache needs at least 1", *n)
		ok = false
	}
	if !ok {
		return base, false
	}
	prof, _ := r.Profile() // cannot fail: ProfileByName accepted r.CPU above
	r.CPU = prof.Arch
	if prof.L1Sets == base.L1Sets {
		r.L1Sets = nil
	}
	if prof.L1Ways == base.L1Ways {
		r.L1Ways = nil
	}
	return prof, true
}

func checkStream(s lruleak.StreamSpec, e *errs) {
	for i, pt := range s.Points {
		field := fmt.Sprintf("stream.points[%d]", i)
		if pt.Tr < 1 {
			e.add(field+".tr", "the receiver period must be >= 1 cycle")
		}
		if pt.Ts < 1 {
			e.add(field+".ts", "the symbol period must be >= 1 cycle")
		}
	}
	for i, name := range s.Codecs {
		if _, err := codec.ByName(name); err != nil {
			e.add(fmt.Sprintf("stream.codecs[%d]", i), "%v", err)
		}
	}
	for i, lanes := range s.LaneCounts {
		// DefaultLanes panics above 62 usable sets; 0 lanes is no channel.
		if lanes < 1 || lanes > 62 {
			e.add(fmt.Sprintf("stream.laneCounts[%d]", i), "%d lanes; want 1..62 (the usable L1 sets)", lanes)
		}
	}
	for i, n := range s.NoiseThreads {
		if n < 0 || n > 64 {
			e.add(fmt.Sprintf("stream.noiseThreads[%d]", i), "%d noise threads; want 0..64", n)
		}
	}
	if s.FramePayload < 0 || s.FramePayload > 255 {
		e.add("stream.framePayload", "%d bytes/frame; want 0 (default) .. 255 (the frame length field is one byte)", s.FramePayload)
	}
	if s.PayloadBytes < 0 {
		e.add("stream.payloadBytes", "must be >= 0")
	} else if max := transport.MaxPayloadBytes(s.FramePayload); s.PayloadBytes > max {
		e.add("stream.payloadBytes", "%d bytes exceeds the %d-byte single-send limit at this frame size", s.PayloadBytes, max)
	}
}

func checkROC(r *lruleak.ROCSpec, e *errs) {
	for i, name := range r.Victims {
		if err := tryVictim(name, lruleak.SandyBridge().L1Sets); err != nil {
			e.add(fmt.Sprintf("roc.victims[%d]", i), "%v", err)
		}
	}
	r.Policies = canon(e, "roc.policies", r.Policies, replacement.ParseKind)
	r.Defenses = canon(e, "roc.defenses", r.Defenses, lruleak.AttackDefenseByName)
	for i, th := range r.Thresholds {
		if th < 0 {
			e.add(fmt.Sprintf("roc.thresholds[%d]", i), "thresholds are rates; %g is negative", th)
		}
	}
	nonNegative(e, "roc.trials", r.Trials, 1024)
	nonNegative(e, "roc.symbols", r.Symbols, 1024)
	nonNegative(e, "roc.benignRefs", r.BenignRefs, 100_000_000)
	nonNegative(e, "roc.benignSlice", r.BenignSlice, 100_000_000)
}
