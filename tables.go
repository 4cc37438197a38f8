package lruleak

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/perfctr"
	"repro/internal/sched"
	"repro/internal/spectre"
)

// This file contains one driver per table of the paper's evaluation. Like
// the figure drivers, each declares its grid as engine jobs; results come
// back in submission order, so rendered tables are identical at any worker
// count.

// TableI reproduces the eviction-probability grid (trials 0 = the paper's
// 10,000): one job per (condition, policy, sequence) study, four cells
// each.
func TableI(trials int, seed uint64, opt RunOptions) []core.TableICell {
	specs := core.TableISpecs()
	jobs := make([]engine.Job[[]core.TableICell], len(specs))
	for i, sp := range specs {
		sp := sp
		jobs[i] = engine.Job[[]core.TableICell]{
			Name: sp.String(),
			Seed: seed,
			Run: func(s uint64) []core.TableICell {
				return core.RunTableISpec(sp, trials, s)
			},
		}
	}
	var cells []core.TableICell
	for _, group := range engine.Values(engine.Run(jobs, opt)) {
		cells = append(cells, group...)
	}
	return cells
}

// RenderTableI formats the grid like the paper's Table I.
func RenderTableI(cells []core.TableICell) string {
	var b strings.Builder
	b.WriteString("Init cond.  Iter  Policy      Seq  P(line 0 evicted)\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-10s  %4d  %-10s  %d    %5.1f%%\n",
			c.Init, c.Iteration, c.Policy, c.Seq, 100*c.Prob)
	}
	return b.String()
}

// TableIIRow is one microarchitecture's cache latencies.
type TableIIRow struct {
	Profile Profile
	L1D, L2 int
}

// TableII returns the latency table.
func TableII() []TableIIRow {
	var rows []TableIIRow
	for _, p := range Profiles() {
		rows = append(rows, TableIIRow{Profile: p, L1D: p.L1Latency, L2: p.L2Latency})
	}
	return rows
}

// RenderTableII formats Table II.
func RenderTableII(rows []TableIIRow) string {
	var b strings.Builder
	b.WriteString("Microarchitecture        L1D    L2 (cycles)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s  %4d  %4d\n", r.Profile.Arch, r.L1D, r.L2)
	}
	return b.String()
}

// TableIVCell is one transmission-rate summary entry.
type TableIVCell struct {
	Profile   Profile
	Mode      sched.Mode
	Algorithm core.Algorithm
	// RateBps is the effective transmission rate; 0 marks the
	// combinations the paper found unusable (Algorithm 2 time-sliced).
	RateBps float64
	// ErrorRate at that operating point (SMT entries only).
	ErrorRate float64
}

// TableIV measures the transmission-rate summary. The SMT entries run the
// error-rate experiment at the paper's operating point (Tr=600/Ts=6000 on
// Intel, Tr=1000/Ts=1e5 on AMD) as parallel jobs; the time-sliced entries
// use the measurements-per-decision estimate of Sections V-B and VI-B and
// need no simulation.
func TableIV(msgBits, repeats int, seed uint64, opt RunOptions) []TableIVCell {
	if msgBits == 0 {
		msgBits = 64
	}
	if repeats == 0 {
		repeats = 4
	}
	profiles := []Profile{SandyBridge(), Zen()}
	var jobs []engine.Job[TableIVCell]
	for _, prof := range profiles {
		ts, tr := uint64(6000), uint64(600)
		same := false
		if prof.Arch == "Zen" {
			ts, tr = 100_000, 1000
			same = true // §VI-B: Algorithm 1 needs one address space on Zen
		}
		for _, alg := range []core.Algorithm{Alg1SharedMemory, Alg2NoSharedMemory} {
			prof, alg, ts, tr, same := prof, alg, ts, tr, same
			jobs = append(jobs, engine.Job[TableIVCell]{
				Name: fmt.Sprintf("tableIV/%s/alg=%d", prof.Arch, int(alg)),
				Seed: seed,
				Run: func(s uint64) TableIVCell {
					c := NewChannel(ChannelConfig{
						Profile: prof, Algorithm: alg, Mode: sched.SMT,
						Tr: tr, Ts: ts, Seed: s,
						SameAddressSpace: same && alg == Alg1SharedMemory,
					})
					res := c.MeasureErrorRate(msgBits, repeats)
					return TableIVCell{
						Profile: prof, Mode: sched.SMT, Algorithm: alg,
						RateBps: res.RateBps, ErrorRate: res.ErrorRate,
					}
				},
			})
		}
	}
	smt := engine.Values(engine.Run(jobs, opt))

	// Reassemble in the paper's row order: per profile, the two measured
	// SMT entries followed by the two derived time-sliced entries.
	var out []TableIVCell
	for pi, prof := range profiles {
		out = append(out, smt[2*pi], smt[2*pi+1])
		// Time-sliced Algorithm 1: rate ~ 1 bit per K measurements of
		// period Tr (K=10 on Intel, 100 on AMD per the paper).
		k := 10.0
		if prof.Arch == "Zen" {
			k = 100
		}
		trSlice := 100_000_000.0
		out = append(out, TableIVCell{
			Profile: prof, Mode: sched.TimeSliced, Algorithm: Alg1SharedMemory,
			RateBps: prof.Freq * 1e9 / (trSlice * k),
		})
		// Algorithm 2 time-sliced: no signal observed (paper: "–").
		out = append(out, TableIVCell{
			Profile: prof, Mode: sched.TimeSliced, Algorithm: Alg2NoSharedMemory,
		})
	}
	return out
}

// RenderTableIV formats the summary like Table IV.
func RenderTableIV(cells []TableIVCell) string {
	var b strings.Builder
	b.WriteString("CPU                     Sharing          Algorithm                         Rate\n")
	for _, c := range cells {
		rate := "-"
		if c.RateBps >= 1000 {
			rate = fmt.Sprintf("%.0f Kbps", c.RateBps/1000)
		} else if c.RateBps > 0 {
			rate = fmt.Sprintf("%.1f bps", c.RateBps)
		}
		fmt.Fprintf(&b, "%-22s  %-15s  %-32s  %s\n", c.Profile.Name, c.Mode, c.Algorithm, rate)
	}
	return b.String()
}

// TableVRow is one encoding-latency comparison row.
type TableVRow struct {
	Profile Profile
	FRMem   int
	FRL1    int
	LRU     int
}

// TableV measures the sender's per-bit encoding cost for each channel,
// one job per profile.
func TableV(seed uint64, opt RunOptions) []TableVRow {
	profiles := Profiles()
	jobs := make([]engine.Job[TableVRow], len(profiles))
	for i, prof := range profiles {
		prof := prof
		jobs[i] = engine.Job[TableVRow]{
			Name: fmt.Sprintf("tableV/%s", prof.Arch),
			Seed: seed,
			Run: func(s uint64) TableVRow {
				cost := func(alg core.Algorithm) int {
					return NewChannel(ChannelConfig{Profile: prof, Algorithm: alg, Seed: s}).EncodeCost()
				}
				return TableVRow{
					Profile: prof,
					FRMem:   cost(FlushReloadMem),
					FRL1:    cost(FlushReloadL1),
					LRU:     cost(Alg1SharedMemory),
				}
			},
		}
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderTableV formats Table V.
func RenderTableV(rows []TableVRow) string {
	var b strings.Builder
	b.WriteString("CPU                     F+R(mem)  F+R(L1)  L1 LRU (cycles)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s  %8d  %7d  %6d\n", r.Profile.Name, r.FRMem, r.FRL1, r.LRU)
	}
	return b.String()
}

// TableVIRow is one sender-process miss-rate row.
type TableVIRow struct {
	Profile Profile
	Channel string
	Report  perfctr.Report
}

// TableVI runs each channel and collects the sender's per-level miss rates,
// plus the baselines of a sender sharing with a benign workload and a
// sender alone — one job per table row.
func TableVI(samples int, seed uint64, opt RunOptions) []TableVIRow {
	if samples == 0 {
		samples = 200
	}
	var jobs []engine.Job[TableVIRow]
	add := func(name string, run func(seed uint64) TableVIRow) {
		jobs = append(jobs, engine.Job[TableVIRow]{Name: name, Seed: seed, Run: run})
	}
	for _, prof := range []Profile{SandyBridge(), Skylake()} {
		prof := prof
		// F+R variants and the LRU channels.
		for _, alg := range []core.Algorithm{FlushReloadMem, FlushReloadL1, Alg1SharedMemory, Alg2NoSharedMemory} {
			alg, name := alg, alg.Column()
			add(fmt.Sprintf("tableVI/%s/%s", prof.Arch, name), func(s uint64) TableVIRow {
				c := NewChannel(ChannelConfig{Profile: prof, Algorithm: alg,
					Mode: sched.SMT, Tr: 600, Ts: 6000, Seed: s})
				c.Run([]byte{1, 0}, true, samples, 1<<40)
				return TableVIRow{prof, name, perfctr.Collect(c.Hier, core.ReqSender)}
			})
		}
		// sender & gcc: the sender shares the core with a benign noisy
		// workload instead of a receiver.
		add(fmt.Sprintf("tableVI/%s/sender&gcc", prof.Arch), func(s uint64) TableVIRow {
			c := NewChannel(ChannelConfig{Profile: prof, Algorithm: Alg1SharedMemory,
				Mode: sched.SMT, Tr: 600, Ts: 6000, Seed: s,
				NoiseThreads: 1, NoisePeriod: 300})
			m := c.NewMachine()
			c.WarmSender()
			m.AddThread("sender", core.ReqSender, c.SenderProgram([]byte{1, 0}, true))
			m.AddThread("gcc", core.ReqOther, c.NoiseProgram())
			m.Run(3_000_000)
			return TableVIRow{prof, "sender & gcc", perfctr.Collect(c.Hier, core.ReqSender)}
		})
		// sender only.
		add(fmt.Sprintf("tableVI/%s/sender-only", prof.Arch), func(s uint64) TableVIRow {
			c := NewChannel(ChannelConfig{Profile: prof, Algorithm: Alg1SharedMemory,
				Mode: sched.SMT, Tr: 600, Ts: 6000, Seed: s})
			m := c.NewMachine()
			c.WarmSender()
			m.AddThread("sender", core.ReqSender, c.SenderProgram([]byte{1, 0}, true))
			m.Run(3_000_000)
			return TableVIRow{prof, "sender only", perfctr.Collect(c.Hier, core.ReqSender)}
		})
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderTableVI formats Table VI.
func RenderTableVI(rows []TableVIRow) string {
	var b strings.Builder
	b.WriteString("CPU                     Channel        sender miss rates\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s  %-13s  %s\n", r.Profile.Name, r.Channel, r.Report)
	}
	return b.String()
}

// TableVIIRow is one Spectre-attack miss-rate row.
type TableVIIRow struct {
	Profile    Profile
	Disclosure core.Algorithm
	Report     perfctr.Report
	Accuracy   float64
}

// TableVII runs the Spectre attack with each disclosure primitive and
// collects combined victim+attacker miss rates — one job per
// (profile, disclosure) cell.
func TableVII(secret []byte, seed uint64, opt RunOptions) []TableVIIRow {
	if len(secret) == 0 {
		secret = EncodeString("MAGIC")
	}
	var jobs []engine.Job[TableVIIRow]
	for _, prof := range []Profile{SandyBridge(), Skylake()} {
		for _, d := range []core.Algorithm{FlushReloadMem, FlushReloadL1, Alg1SharedMemory, Alg2NoSharedMemory} {
			prof, d := prof, d
			jobs = append(jobs, engine.Job[TableVIIRow]{
				Name: fmt.Sprintf("tableVII/%s/%s", prof.Arch, d.Column()),
				Seed: seed,
				Run: func(s uint64) TableVIIRow {
					cfg := SpectreConfig{Profile: prof, Disclosure: d, Seed: s}
					if d == FlushReloadMem {
						cfg.Window = 300 // F+R needs the probe fill to complete
					}
					a := NewSpectre(cfg, secret)
					acc := a.Accuracy()
					return TableVIIRow{
						Profile: prof, Disclosure: d,
						Report:   perfctr.CollectCombined(a.Hier, spectre.ReqVictim, spectre.ReqAttacker),
						Accuracy: acc,
					}
				},
			})
		}
	}
	return engine.Values(engine.Run(jobs, opt))
}

// RenderTableVII formats Table VII (plus the recovery accuracy, which the
// paper reports in prose).
func RenderTableVII(rows []TableVIIRow) string {
	var b strings.Builder
	b.WriteString("CPU                     Disclosure     miss rates                              recovered\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s  %-13s  %s  %5.1f%%\n",
			r.Profile.Name, r.Disclosure.Column(), r.Report, 100*r.Accuracy)
	}
	return b.String()
}
