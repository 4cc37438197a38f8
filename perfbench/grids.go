package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/engine"
)

// goldenSeed is the seed every testdata/ golden was rendered at.
const goldenSeed = 7

// gridWorkload is one of the grid workloads: a root-package sweep plus
// its renderer, exactly as the CLIs call them.
type gridWorkload struct {
	// golden names the testdata/ file the render at goldenSeed must
	// equal; empty when the timed grid is not the golden grid.
	golden string
	render func(seed uint64, opt lruleak.RunOptions) string
	// extra, if set, is a further correctness check run once after the
	// timed window: the golden grid of a workload whose timed grid is a
	// different spec.
	extra func(r *run, opt lruleak.RunOptions)
}

var grids = map[string]gridWorkload{
	"roc-detect": {
		golden: "roc",
		render: func(seed uint64, opt lruleak.RunOptions) string {
			return lruleak.RenderROC(lruleak.ROCSweep(lruleak.ROCSpec{}, seed, opt))
		},
	},
	"stream-sched": {
		render: func(seed uint64, opt lruleak.RunOptions) string {
			return lruleak.RenderStreamSweep(lruleak.StreamSweep(lruleak.StreamSpec{}, seed, opt))
		},
		extra: func(r *run, opt lruleak.RunOptions) {
			// The spec testdata/streamsweep.golden pins (see
			// determinism_test.go).
			spec := lruleak.StreamSpec{
				Codecs:       []string{"none", "hamming74"},
				LaneCounts:   []int{4},
				NoiseThreads: []int{0, 3},
				PayloadBytes: 48,
			}
			got, err := safeRender(func() string {
				return lruleak.RenderStreamSweep(lruleak.StreamSweep(spec, goldenSeed, opt))
			})
			r.checkGolden("streamsweep", got, err)
		},
	},
	"leakage-board": {
		golden: "leakage",
		render: func(seed uint64, opt lruleak.RunOptions) string {
			return lruleak.RenderLeakage(lruleak.LeakageSweep(lruleak.LeakageSpec{}, seed, opt))
		},
	},
}

// cellLog collects the engine's per-cell completion events of one or
// more grids: the wall time of every cell, the resident set after it
// and, when a tracer is on, a cell span under the grid span that ran it.
type cellLog struct {
	mu     sync.Mutex
	walls  []float64
	rss    []float64
	tr     *tracer
	parent int
	req    string
}

func (c *cellLog) progress(ev engine.Event) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.walls = append(c.walls, ms(ev.Wall))
	c.rss = append(c.rss, residentMB())
	c.tr.record("cell", c.req, c.parent, now.Add(-ev.Wall), now)
}

// runGrid is the grid workloads' measurement:
//
//   - set-up, several times (see moreSetups): a fresh engine pool and
//     its first grid, the untimed warm-up. The first set-up runs at the
//     golden seed and is compared with the golden; the others run at
//     the run's seed, and the first of them gives the reference render.
//     setup_s is the median CPU time of a set-up.
//   - the timed window: the grid repeated on the warm pool of the last
//     set-up for the run's seconds, each render checked against the
//     reference. op_cpu_ms is the median CPU time of a repetition. A
//     traced run alternates traced and untraced repetitions, so the
//     tracing overhead is measured in the same process.
//
// Times are process CPU time (see cpuTime), so a host that runs other
// work beside the benchmark stretches its wall time, not its results;
// the host's speed is sampled before every set-up and repetition (see
// speed), outside the timed intervals.
func (r *run) runGrid(g gridWorkload) error {
	var (
		setups, setupWalls []float64
		pool               *engine.Pool
		ref                string
	)
	defer func() {
		if pool != nil {
			pool.Close()
		}
	}()
	for k := 0; moreSetups(k, setupWalls); k++ {
		if pool != nil {
			pool.Close()
		}
		r.setupSpeed.sample(2)
		seed, t0, c0 := r.cfg.seed, time.Now(), cpuTime()
		if k == 0 {
			// The first set-up counts from process start.
			seed, t0, c0 = goldenSeed, r.start, 0
		}
		pool = engine.NewPool(engineWorkers)
		got, err := safeRender(func() string {
			return g.render(seed, r.opts(pool, nil))
		})
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.printRender(fmt.Sprintf("setup%d", k+1), seed, got, time.Since(t0))
		switch {
		case k == 0 && g.golden != "":
			r.checkGolden(g.golden, got, err)
		case k == 1:
			ref = got
			r.check(err == nil, "setup render at seed %d: %v", seed, err)
		case k > 1:
			r.check(err == nil && got == ref, "setup render at seed %d differs from the first (%v)", seed, err)
		}
	}

	warm := cellLog{tr: r.tr}
	var walls, cpus, tracedWalls, untracedWalls []float64
	var tracedCells []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	window := time.Duration(r.cfg.seconds) * time.Second
	tw := time.Now()
	for rep := 0; rep < r.minReps() || time.Since(tw) < window; rep++ {
		// About one speed sample per second of grid.
		r.speed.sample(max(1, int(median(walls)+0.5)))
		traced := r.tr != nil && rep%2 == 1
		r.tr.setOn(traced)
		t0, c0 := time.Now(), cpuTime()
		req := "grid-" + strconv.Itoa(rep)
		gid := r.tr.begin("grid", req, 0, t0)
		warm.mu.Lock()
		warm.parent, warm.req = gid, req
		before := len(warm.walls)
		warm.mu.Unlock()
		got, err := safeRender(func() string {
			return g.render(r.cfg.seed, r.opts(pool, warm.progress))
		})
		wall, cpu := time.Since(t0), cpuTime()-c0
		r.tr.end(gid, t0.Add(wall))
		r.tr.setOn(false)
		if err := r.ctx.Err(); err != nil {
			return err
		}
		r.printRender("rep"+strconv.Itoa(rep+1), r.cfg.seed, got, wall)
		r.check(err == nil && got == ref, "repetition %d differs from the reference render (%v)", rep+1, err)
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, ms(cpu))
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
			tracedCells = append(tracedCells, warm.walls[before:]...)
		} else {
			untracedWalls = append(untracedWalls, wall.Seconds())
		}
	}
	runtime.ReadMemStats(&ms1)

	if g.extra != nil {
		g.extra(r, r.opts(pool, nil))
		if err := r.ctx.Err(); err != nil {
			return err
		}
	}

	r.e2e["setup_s"] = median(setups)
	r.e2e["op_cpu_ms"] = median(cpus)
	r.rss = warm.rss
	fmt.Fprintf(r.out, "grid reps=%d wall_p50_s=%.4f cell_wall_p50_ms=%.3f\n",
		len(walls), median(walls), median(warm.walls))

	if r.tr != nil {
		self, _ := r.tr.selfTimes()
		n := float64(len(tracedWalls))
		r.layer["engine.cell_p50_ms"] = median(tracedCells)
		r.layer["engine.cell_tail_ms"] = quantile(tracedCells, 0.95)
		r.layer["engine.busy_frac"] = self["cell"] / (1000 * sum(tracedWalls) * float64(engineWorkers))
		r.layer["trace.self_ms.grid"] = self["grid"] / n
		r.layer["trace.self_ms.cell"] = self["cell"] / n
		r.layer["trace.overhead_frac"] = overhead(tracedWalls, untracedWalls)
		r.memPerOp(ms0, ms1, len(walls))
	}
	return nil
}
