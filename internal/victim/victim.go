package victim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/workload"
)

// Tag bases carve the (infinite) physical line space into disjoint
// regions per traffic class. Attack code uses its own base (see
// internal/attack); these only need to avoid each other and that one.
const (
	tableTagBase = 1 << 10 // secret-indexed table lines
	noiseTagBase = 1 << 12 // workload-generator noise
	hotTagBase   = 1 << 14 // benign hot-loop lines
)

// Background traffic: per event window, the number of noise
// accesses drawn from the workload generator and the length of the
// benign hot loop. The hot loop dominates the victim's counter profile
// (almost all hits), keeping a working victim's miss rate benign.
const (
	noisePerWindow = 4
	hotPerWindow   = 320
	hotLineCount   = 8
	// noiseDepth is the per-set depth of the noise footprint; 3 lines
	// plus one table line fit even a half-associativity DAWG partition,
	// so background traffic alone never thrashes the victim.
	noiseDepth = 3
)

// Step is one memory access by the victim: the physical line it touches
// and whether this is the window's secret-dependent access (ground
// truth kept for tests and profiling; the attacker never reads it).
type Step struct {
	Line   uint64
	Secret bool
}

// Victim is a secret-dependent program. One call to Sequence is one
// event window: the accesses the victim performs while processing a
// single secret symbol.
type Victim interface {
	// Name identifies the victim for reports and flags.
	Name() string
	// SymbolSpace is the number of distinct secret symbol values (16
	// for a key nibble, 2 for an exponent bit).
	SymbolSpace() int
	// MonitorSets lists the L1 sets an attacker must watch: the sets
	// the secret-dependent access can land in.
	MonitorSets() []int
	// TableLines are the victim's secret-indexed lines, to be resident
	// (warmed, and under a PL cache locked) before the attack begins.
	TableLines() []uint64
	// WarmLines are the victim's benign working set (hot loop and noise
	// footprint), touched once at program start.
	WarmLines() []uint64
	// Sequence returns the deterministic access sequence for one event
	// window processing the given symbol. Equal (symbol, seed) pairs
	// yield identical sequences; out-of-range symbols are reduced into
	// the symbol space.
	Sequence(symbol int, seed uint64) []Step
}

// background is the benign traffic mixed around every victim's
// secret-dependent access.
type background struct {
	sets     int
	gen      workload.Generator
	hotLines []uint64
}

func newBackground(sets int, genName string) background {
	g, err := workload.ByName(genName, 1)
	if err != nil {
		panic(err) // victim constructors pass fixed, known names
	}
	b := background{sets: sets, gen: g}
	// The hot loop lives in the last few sets, away from the table
	// regions the attacker monitors.
	for i := 0; i < hotLineCount; i++ {
		set := sets - 1 - i%sets
		b.hotLines = append(b.hotLines, uint64(hotTagBase)*uint64(sets)+uint64(set))
	}
	return b
}

// noiseLine maps one generator reference into the victim's noise
// region: the generator's set index is preserved (noise genuinely
// pollutes monitored sets, like a real program's data traffic) while
// the tag is folded into a noiseDepth-deep footprint per set.
func (b *background) noiseLine(a workload.Access) uint64 {
	gl := a.Addr / 64
	set := gl % uint64(b.sets)
	depth := (gl / uint64(b.sets)) % noiseDepth
	return (uint64(noiseTagBase)+depth)*uint64(b.sets) + set
}

// warmLines lists the background working set — the hot loop plus the
// whole noise footprint — which the victim touches at startup like any
// program faulting in its data. Warming it keeps the victim's
// steady-state counter profile benign (background references hit).
func (b *background) warmLines() []uint64 {
	out := append([]uint64(nil), b.hotLines...)
	for depth := uint64(0); depth < noiseDepth; depth++ {
		for set := 0; set < b.sets; set++ {
			out = append(out, (uint64(noiseTagBase)+depth)*uint64(b.sets)+uint64(set))
		}
	}
	return out
}

// wrap builds the full window sequence: half the hot loop, the secret
// steps, the generator noise, then the rest of the hot loop. The noise
// draw is reseeded per window so the sequence is a pure function of
// (steps, seed).
func (b *background) wrap(secret []Step, seed uint64) []Step {
	out := make([]Step, 0, hotPerWindow+noisePerWindow+len(secret))
	half := hotPerWindow / 2
	for i := 0; i < half; i++ {
		out = append(out, Step{Line: b.hotLines[i%len(b.hotLines)]})
	}
	out = append(out, secret...)
	b.gen.Reset(seed)
	for i := 0; i < noisePerWindow; i++ {
		out = append(out, Step{Line: b.noiseLine(b.gen.Next())})
	}
	for i := half; i < hotPerWindow; i++ {
		out = append(out, Step{Line: b.hotLines[i%len(b.hotLines)]})
	}
	return out
}

// reduce folds an arbitrary symbol into [0, space).
func reduce(symbol, space int) int {
	s := symbol % space
	if s < 0 {
		s += space
	}
	return s
}

// lineForSet returns the table line mapping to the given set.
func lineForSet(sets, set int) uint64 {
	return uint64(tableTagBase)*uint64(sets) + uint64(set%sets)
}

// TTable is the AES-style T-table victim: a 16-line lookup table, one
// line per set starting at BaseSet, indexed by a key nibble. Each event
// window performs the single first-round access T[nibble].
type TTable struct {
	bg   background
	sets int
	base int
}

// NewTTable builds the T-table victim over a cache with the given set
// count. The table occupies sets baseSet..baseSet+15 (mod sets).
func NewTTable(sets, baseSet int) *TTable {
	if sets < 16 {
		panic(fmt.Sprintf("victim: ttable needs >= 16 sets, got %d", sets))
	}
	return &TTable{bg: newBackground(sets, "gcc"), sets: sets, base: baseSet}
}

// Name identifies the victim.
func (t *TTable) Name() string { return "ttable" }

// SymbolSpace is 16: one key nibble per lookup.
func (t *TTable) SymbolSpace() int { return 16 }

// MonitorSets lists the 16 table sets.
func (t *TTable) MonitorSets() []int {
	out := make([]int, 16)
	for i := range out {
		out[i] = (t.base + i) % t.sets
	}
	return out
}

// TableLines returns the 16 T-table lines, symbol-indexed.
func (t *TTable) TableLines() []uint64 {
	out := make([]uint64, 16)
	for i := range out {
		out[i] = lineForSet(t.sets, (t.base+i)%t.sets)
	}
	return out
}

// WarmLines is the benign working set.
func (t *TTable) WarmLines() []uint64 { return t.bg.warmLines() }

// Sequence is one table lookup plus background traffic.
func (t *TTable) Sequence(symbol int, seed uint64) []Step {
	k := reduce(symbol, 16)
	return t.bg.wrap([]Step{{Line: lineForSet(t.sets, (t.base+k)%t.sets), Secret: true}}, seed)
}

// SquareMultiply is the square-and-multiply modular-exponentiation
// victim: each window processes one exponent bit. The squaring table
// line (set BaseSet) is touched unconditionally; the multiply table
// line (set BaseSet+1) is touched only when the bit is 1 — the classic
// per-bit branch whose data access betrays the exponent.
type SquareMultiply struct {
	bg   background
	sets int
	base int
}

// NewSquareMultiply builds the exponentiation victim.
func NewSquareMultiply(sets, baseSet int) *SquareMultiply {
	if sets < 2 {
		panic(fmt.Sprintf("victim: sqmul needs >= 2 sets, got %d", sets))
	}
	return &SquareMultiply{bg: newBackground(sets, "perlbench"), sets: sets, base: baseSet}
}

// Name identifies the victim.
func (s *SquareMultiply) Name() string { return "sqmul" }

// SymbolSpace is 2: one exponent bit per window.
func (s *SquareMultiply) SymbolSpace() int { return 2 }

// MonitorSets lists the squaring and multiply sets.
func (s *SquareMultiply) MonitorSets() []int {
	return []int{s.base % s.sets, (s.base + 1) % s.sets}
}

// TableLines returns the squaring and multiply lines.
func (s *SquareMultiply) TableLines() []uint64 {
	return []uint64{
		lineForSet(s.sets, s.base%s.sets),
		lineForSet(s.sets, (s.base+1)%s.sets),
	}
}

// WarmLines is the benign working set.
func (s *SquareMultiply) WarmLines() []uint64 { return s.bg.warmLines() }

// Sequence squares always and multiplies iff the bit is 1.
func (s *SquareMultiply) Sequence(symbol int, seed uint64) []Step {
	bit := reduce(symbol, 2)
	steps := []Step{{Line: lineForSet(s.sets, s.base%s.sets)}}
	if bit == 1 {
		steps = append(steps, Step{Line: lineForSet(s.sets, (s.base+1)%s.sets), Secret: true})
	}
	return s.bg.wrap(steps, seed)
}

// TableLookup is the generic table-indexed victim (a keystroke handler
// dispatching on a scan-code byte, say): Width table lines, one per
// set, indexed by the secret symbol, with configurable background noise
// from a workload.Generator.
type TableLookup struct {
	bg    background
	sets  int
	base  int
	width int
}

// NewTableLookup builds a lookup victim with the given secret width and
// background-noise generator (any Figure 9 workload name).
func NewTableLookup(sets, baseSet, width int, genName string) (*TableLookup, error) {
	if width < 2 || width > sets {
		return nil, fmt.Errorf("victim: lookup width %d out of range [2,%d]", width, sets)
	}
	if _, err := workload.ByName(genName, 1); err != nil {
		return nil, err
	}
	return &TableLookup{bg: newBackground(sets, genName), sets: sets, base: baseSet, width: width}, nil
}

// Name identifies the victim.
func (l *TableLookup) Name() string { return "lookup" }

// SymbolSpace is the configured secret width.
func (l *TableLookup) SymbolSpace() int { return l.width }

// MonitorSets lists the table sets.
func (l *TableLookup) MonitorSets() []int {
	out := make([]int, l.width)
	for i := range out {
		out[i] = (l.base + i) % l.sets
	}
	return out
}

// TableLines returns the symbol-indexed table lines.
func (l *TableLookup) TableLines() []uint64 {
	out := make([]uint64, l.width)
	for i := range out {
		out[i] = lineForSet(l.sets, (l.base+i)%l.sets)
	}
	return out
}

// WarmLines is the benign working set.
func (l *TableLookup) WarmLines() []uint64 { return l.bg.warmLines() }

// Sequence is one table dispatch plus background traffic.
func (l *TableLookup) Sequence(symbol int, seed uint64) []Step {
	k := reduce(symbol, l.width)
	return l.bg.wrap([]Step{{Line: lineForSet(l.sets, (l.base+k)%l.sets), Secret: true}}, seed)
}

// Names lists the victim kinds ByName accepts, in presentation order.
func Names() []string { return []string{"ttable", "sqmul", "lookup"} }

// ByName constructs a victim by kind name over a cache with the given
// set count, at each kind's default placement and configuration.
func ByName(name string, sets int) (Victim, error) {
	switch strings.ToLower(name) {
	case "ttable", "aes":
		return NewTTable(sets, 8), nil
	case "sqmul", "rsa", "squaremultiply":
		return NewSquareMultiply(sets, 30), nil
	case "lookup", "keystroke":
		return NewTableLookup(sets, 34, 8, "gcc")
	default:
		return nil, fmt.Errorf("victim: unknown victim %q (want one of %s)",
			name, strings.Join(Names(), ", "))
	}
}

// DemoSecret derives a deterministic demo secret of n symbols for the
// victim from a seed — the "planted key" every attack run and sweep
// cell tries to recover.
func DemoSecret(v Victim, n int, seed uint64) []int {
	r := rng.New(seed ^ 0x5ec2e7)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Intn(v.SymbolSpace())
	}
	return out
}

// ParseSecret decodes a textual secret into symbols for the victim:
// each character is a digit in the victim's symbol base (hex digits for
// the 16-symbol T-table, 0/1 bits for square-and-multiply).
func ParseSecret(v Victim, s string) ([]int, error) {
	base := v.SymbolSpace()
	if base > 36 {
		base = 36
	}
	out := make([]int, 0, len(s))
	for _, c := range strings.ToLower(s) {
		d, err := strconv.ParseInt(string(c), base, 32)
		if err != nil {
			return nil, fmt.Errorf("victim: secret char %q is not a base-%d digit", c, base)
		}
		out = append(out, int(d))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("victim: empty secret")
	}
	return out, nil
}

// FormatSecret renders symbols in the victim's digit base, inverse of
// ParseSecret.
func FormatSecret(v Victim, symbols []int) string {
	base := v.SymbolSpace()
	if base > 36 {
		base = 36
	}
	var b strings.Builder
	for _, s := range symbols {
		b.WriteString(strconv.FormatInt(int64(reduce(s, base)), base))
	}
	return b.String()
}
