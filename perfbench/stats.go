package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method). It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// overhead is how much slower the traced samples' median is than the
// untraced samples', as a fraction; 0 when either side has no samples.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced)/median(untraced) - 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perOp times f, which performs n operations per call, in nanoseconds
// per operation. n doubles until one call takes at least minBatch, so a
// nanosecond-scale operation is timed over millions of calls rather than
// one timer tick; the result is the median over five calls at that n.
func perOp(minBatch time.Duration, f func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		f(n)
		if time.Since(t0) >= minBatch || n >= 1<<30 {
			break
		}
		n *= 2
	}
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		f(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// perCall times f in milliseconds per call: at least three calls and at
// least minTotal of calls, reporting the median.
func perCall(minTotal time.Duration, f func(i int)) float64 {
	var walls []float64
	t0 := time.Now()
	for i := 0; i < 3 || time.Since(t0) < minTotal; i++ {
		c0 := time.Now()
		f(i)
		walls = append(walls, ms(time.Since(c0)))
	}
	return median(walls)
}

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads. The kernel leaves out the time the process
// waited for a CPU, including time the hypervisor gave to other guests
// (steal), so it measures the work done rather than how busy the host
// was.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refNominalMs is the reference kernel's CPU time per thread on the
// reference host, a 2-vCPU Intel Xeon VM at its quietest, where it took
// 24-26 ms. It only sets the scale of the scaled metrics.
const refNominalMs = 25.0

// speed samples the host's current speed with a fixed reference
// kernel, which calls nothing in the repository. Other guests on a
// shared host slow the CPU itself — a busy sibling hyperthread, a
// contended cache, a lower clock — and that inflates CPU time as well as
// wall time; the kernel, run on as many threads as the engine has
// workers and between the timed operations, slows by about the same
// factor over the same minutes.
type speed struct {
	samples []float64 // CPU ms per thread of one kernel run
	tables  [][]uint64
}

// sample runs the kernel k times on every worker thread.
func (s *speed) sample(k int) {
	if s.tables == nil {
		for w := 0; w < engineWorkers; w++ {
			s.tables = append(s.tables, make([]uint64, 1<<15))
		}
	}
	for ; k > 0; k-- {
		c0 := cpuTime()
		var wg sync.WaitGroup
		for _, t := range s.tables {
			wg.Add(1)
			go func() {
				defer wg.Done()
				refKernel(t)
			}()
		}
		wg.Wait()
		s.samples = append(s.samples, ms(cpuTime()-c0)/float64(len(s.tables)))
	}
}

// factor scales a CPU time measured in this run to the reference host:
// the nominal kernel time over the median sampled one.
func (s *speed) factor() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return refNominalMs / median(s.samples)
}

// refKernel is the reference work: four million steps of a xorshift
// generator that reads and updates a 256 KiB table at its outputs, the
// dependent loads and L2-resident table updates a cache simulator
// makes.
func refKernel(t []uint64) {
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	mask := uint64(len(t) - 1)
	x := uint64(88172645463325252)
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask] += x
		x += t[(x>>20)&mask]
	}
	t[0] = x
}
