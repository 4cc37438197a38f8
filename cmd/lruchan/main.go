// Command lruchan regenerates the LRU-channel figures of the paper:
// latency histograms (Figures 3, 13), error-rate sweeps (Figure 4),
// receiver traces (Figures 5, 7, 14), and the time-sliced percent-of-ones
// sweeps (Figures 6, 8, 15). Multi-cell figures fan out over the
// experiment engine's worker pool; -workers 1 forces a serial run, which
// produces byte-identical output.
//
// Usage:
//
//	lruchan -fig 3  [-cpu sandy|skylake|zen] [-seed N]
//	lruchan -fig 4  [-alg 1|2] [-bits 128] [-repeats 30]
//	lruchan -fig 5  [-alg 1|2] [-samples 200]
//	lruchan -fig 6  [-samples 100]
//	lruchan -fig 7  [-alg 1|2] [-samples 1400]
//	lruchan -fig 8 | -fig 13 | -fig 14 | -fig 15
//	lruchan -sweep [-bits N] [-repeats N]   (multi-profile × multi-policy grid)
//	lruchan -stream [-payload 256] [-noise 3]   (streaming transport demo: codec comparison)
//	lruchan -stream -sweep [-payload N] [-noise N]   (transport capacity grid: codec × lanes × noise)
//
// All forms accept -workers N (0 = all cores) and -progress.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/transport"
)

func main() {
	var (
		fig      = flag.Int("fig", 5, "figure number to regenerate (3,4,5,6,7,8,13,14,15)")
		sweep    = flag.Bool("sweep", false, "run the generalized profile × policy × (Tr,Ts) sweep instead of one figure")
		cpu      = flag.String("cpu", "sandy", "CPU profile: sandy, skylake or zen")
		alg      = flag.Int("alg", 1, "channel protocol: 1 (shared memory) or 2 (no shared memory)")
		samples  = flag.Int("samples", 200, "receiver samples for trace figures")
		bits     = flag.Int("bits", 64, "message bits per trial (Figure 4; the paper uses 128)")
		repeats  = flag.Int("repeats", 4, "message repetitions (Figure 4; the paper uses 30)")
		seed     = flag.Uint64("seed", 2020, "experiment seed")
		workers  = flag.Int("workers", 0, "parallel experiment workers (0 = all cores)")
		progress = flag.Bool("progress", false, "report per-cell progress on stderr")
		stream   = flag.Bool("stream", false, "run the streaming-transport demo (with -sweep: the capacity grid)")
		payload  = flag.Int("payload", 256, "stream demo payload bytes")
		noise    = flag.Int("noise", 3, "stream demo noise threads")
	)
	flag.Parse()
	if *alg != 1 && *alg != 2 {
		fmt.Fprintf(os.Stderr, "lruchan: -alg must be 1 or 2, got %d\n", *alg)
		os.Exit(2)
	}
	// A zero sample count would run the receiver until the simulator's
	// cycle wall, so every count flag must be at least 1.
	for _, c := range []struct {
		name string
		v    int
	}{{"samples", *samples}, {"bits", *bits}, {"repeats", *repeats}} {
		if c.v < 1 {
			fmt.Fprintf(os.Stderr, "lruchan: -%s must be >= 1, got %d\n", c.name, c.v)
			os.Exit(2)
		}
	}

	opt := lruleak.RunOptions{Workers: *workers}
	if *progress {
		opt.Progress = lruleak.ProgressTo(os.Stderr)
	}

	prof, err := lruleak.ProfileByName(*cpu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	algorithm := lruleak.Alg1SharedMemory
	if *alg == 2 {
		algorithm = lruleak.Alg2NoSharedMemory
	}

	if *stream {
		// The transport's operating point is tuned for Algorithm 1 on
		// the default profile; reject every figure-only flag it would
		// otherwise silently ignore.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "alg", "cpu", "fig", "samples", "bits", "repeats":
				fmt.Fprintf(os.Stderr, "lruchan: -%s is not supported with -stream (the transport runs Algorithm 1 on the default profile)\n", f.Name)
				os.Exit(2)
			}
		})
		if max := transport.MaxPayloadBytes(0); *payload < 1 || *payload > max {
			fmt.Fprintf(os.Stderr, "lruchan: -payload must be in [1, %d], got %d\n", max, *payload)
			os.Exit(2)
		}
		if *noise < 0 {
			fmt.Fprintf(os.Stderr, "lruchan: -noise must be >= 0, got %d\n", *noise)
			os.Exit(2)
		}
		if *sweep {
			spec := lruleak.StreamSpec{PayloadBytes: *payload}
			// An explicit -noise narrows the grid's noise dimension to
			// {0, noise} ({0} alone for -noise 0); unset, the spec
			// default applies.
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "noise" {
					spec.NoiseThreads = []int{0}
					if *noise != 0 {
						spec.NoiseThreads = append(spec.NoiseThreads, *noise)
					}
				}
			})
			fmt.Print(lruleak.RenderStreamSweep(lruleak.StreamSweep(spec, *seed, opt)))
			return
		}
		fmt.Print(lruleak.RenderStreamDemo(lruleak.StreamDemo(*payload, *noise, *seed, opt)))
		return
	}

	if *sweep {
		spec := lruleak.SweepSpec{
			Policies: []lruleak.ReplacementKind{lruleak.TreePLRU, lruleak.BitPLRU, lruleak.FIFO, lruleak.Random},
			Points:   []lruleak.TrTs{{Tr: 600, Ts: 6000}, {Tr: 1000, Ts: 12000}},
			MsgBits:  *bits, Repeats: *repeats,
		}
		// An explicit -cpu or -alg narrows the grid to that slice;
		// unset, the sweep covers all profiles and both algorithms.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "cpu":
				spec.Profiles = []lruleak.Profile{prof}
			case "alg":
				spec.Algorithms = append(spec.Algorithms, algorithm)
			}
		})
		cells := lruleak.Sweep(spec, *seed, opt)
		fmt.Print(lruleak.RenderSweep(cells))
		return
	}

	switch *fig {
	case 3:
		fmt.Print(lruleak.Figure3(prof, 5000, *seed, opt).Render())
	case 4:
		pts := lruleak.Figure4(prof, algorithm, *bits, *repeats, *seed, opt)
		fmt.Print(lruleak.RenderFigure4(pts))
	case 5:
		fmt.Print(lruleak.Figure5(prof, algorithm, *samples, *seed, opt).Render())
	case 6:
		pts := lruleak.Figure6(prof, nil, *samples, *seed, opt)
		fmt.Print(lruleak.RenderFigure6(pts))
	case 7:
		fmt.Print(lruleak.Figure7(algorithm, *samples, *seed, opt).Render())
	case 8:
		pts := lruleak.Figure6(lruleak.Zen(), nil, *samples, *seed, opt)
		fmt.Print(lruleak.RenderFigure6(pts))
	case 13:
		fmt.Print(lruleak.Figure13(prof, 5000, *seed, opt).Render())
	case 14:
		fmt.Print(lruleak.Figure5(lruleak.Skylake(), algorithm, *samples, *seed, opt).Render())
	case 15:
		pts := lruleak.Figure6(lruleak.Skylake(), nil, *samples, *seed, opt)
		fmt.Print(lruleak.RenderFigure6(pts))
	default:
		fmt.Fprintf(os.Stderr, "lruchan: no driver for figure %d\n", *fig)
		os.Exit(2)
	}
}
