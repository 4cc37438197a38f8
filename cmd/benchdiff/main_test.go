package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseRequire(t *testing.T) {
	cases := []struct {
		in   string
		want requirement
		err  bool
	}{
		{in: "BenchmarkY/workers=all:BenchmarkY/workers=1:2.0",
			want: requirement{name: "BenchmarkY/workers=all", reference: "BenchmarkY/workers=1", ratio: 2.0}},
		{in: "BenchmarkX:2.0", err: true}, // the one-name form compared against a baseline file
		{in: "BenchmarkX", err: true},
		{in: "a:b:zero", err: true},
		{in: "a:b:-1", err: true},
		{in: "a:b:0", err: true},
		{in: ":b:2.0", err: true},
		{in: "a::2.0", err: true},
		{in: "a:b:c:2.0", err: true},
	}
	for _, c := range cases {
		got, err := parseRequire(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseRequire(%q): want error, got %+v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseRequire(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseRequire(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// benchOutput is go test -bench text from a 4-core runner, with the
// header, skip, log and trailer lines go test prints around results.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkTableIVParallelSpeedup/workers=1-4         	       1	 150000000 ns/op	         4.000 gomaxprocs	         1.000 workers
BenchmarkTableIVParallelSpeedup/workers=all-4       	       1	  60000000 ns/op	         4.000 gomaxprocs	         4.000 workers
BenchmarkMetricsOverhead/telemetry=off-4            	       1	   1400000 ns/op	       256.0 cells
BenchmarkMetricsOverhead/telemetry=on-4             	       1	   2000000 ns/op	       256.0 cells
BenchmarkLeakageEnumeration/mode=exhaustive         	       1	  30000000 ns/op	     32768 states
BenchmarkLeakageEnumeration/mode=sampled            	       1	 400000000 ns/op	         0.0000000 coverage
--- SKIP: BenchmarkSweepParallelSpeedup/workers=all
    bench_test.go:32: GOMAXPROCS=1
PASS
ok  	repro	2.345s
`

func TestParseBench(t *testing.T) {
	ns, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTableIVParallelSpeedup/workers=1":   150000000,
		"BenchmarkTableIVParallelSpeedup/workers=all": 60000000,
		"BenchmarkMetricsOverhead/telemetry=off":      1400000,
		"BenchmarkMetricsOverhead/telemetry=on":       2000000,
		"BenchmarkLeakageEnumeration/mode=exhaustive": 30000000,
		"BenchmarkLeakageEnumeration/mode=sampled":    400000000,
	}
	if len(ns) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(ns), len(want), ns)
	}
	for name, v := range want {
		if len(ns[name]) != 1 || ns[name][0] != v {
			t.Errorf("%s: ns/op %v, want [%v]", name, ns[name], v)
		}
	}
}

func TestStripProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX/workers=1-4":     "BenchmarkX/workers=1",
		"BenchmarkX/workers=1":       "BenchmarkX/workers=1",
		"BenchmarkX/workers=all-16":  "BenchmarkX/workers=all",
		"BenchmarkX/plcache-fix":     "BenchmarkX/plcache-fix",
		"BenchmarkServiceThroughput": "BenchmarkServiceThroughput",
	} {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckRequirements(t *testing.T) {
	ns := map[string][]float64{
		"BenchmarkB/mode=fast":   {10},
		"BenchmarkB/mode=slow":   {50},
		"BenchmarkB/mode=barely": {30},
	}

	t.Run("sibling ratio passes and fails", func(t *testing.T) {
		out, failures := checkRequirements([]requirement{
			{name: "BenchmarkB/mode=fast", reference: "BenchmarkB/mode=slow", ratio: 2.0},
			{name: "BenchmarkB/mode=barely", reference: "BenchmarkB/mode=slow", ratio: 2.0},
		}, ns)
		if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkB/mode=barely") {
			t.Fatalf("want exactly the below-ratio pin to fail, got %v", failures)
		}
		if !strings.Contains(out, "5.00x vs BenchmarkB/mode=slow") {
			t.Fatalf("report missing measured ratio:\n%s", out)
		}
	})

	t.Run("missing bench warns instead of failing", func(t *testing.T) {
		out, failures := checkRequirements([]requirement{
			{name: "BenchmarkZ/workers=all", reference: "BenchmarkZ/workers=1", ratio: 2.0},
			{name: "BenchmarkB/mode=fast", reference: "BenchmarkGone", ratio: 2.0},
		}, ns)
		if len(failures) != 0 {
			t.Fatalf("missing benches must not fail the gate: %v", failures)
		}
		for _, want := range []string{"BenchmarkZ/workers=all: not in this run", "reference BenchmarkGone not in this run"} {
			if !strings.Contains(out, want) {
				t.Fatalf("report missing %q:\n%s", want, out)
			}
		}
	})
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1}, 5},
		{[]float64{30, 10, 20}, 20},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 100, 5, 6, 5}, 5},
	} {
		if got := median(append([]float64(nil), c.in...)); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// countOutput is -count 3 output in which each side of the pin has one
// outlying iteration: the last line alone reads 1.5x (fails a 2.0 pin),
// the first line alone reads 9x; the medians (100 and 400) read 4.0x.
const countOutput = `BenchmarkE/mode=exhaustive 	5	 50 ns/op
BenchmarkE/mode=sampled    	5	450 ns/op
BenchmarkE/mode=exhaustive 	5	100 ns/op
BenchmarkE/mode=sampled    	5	400 ns/op
BenchmarkE/mode=exhaustive 	5	200 ns/op
BenchmarkE/mode=sampled    	5	300 ns/op
PASS
`

// TestMedianOverCount checks that a pin is judged on the medians of
// the repeated lines, not on the last line of each side.
func TestMedianOverCount(t *testing.T) {
	ns, err := parseBench(strings.NewReader(countOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := ns["BenchmarkE/mode=exhaustive"]; len(got) != 3 {
		t.Fatalf("parsed %v, want the 3 exhaustive samples", got)
	}
	pin := []requirement{{name: "BenchmarkE/mode=exhaustive", reference: "BenchmarkE/mode=sampled", ratio: 2.0}}
	out, failures := checkRequirements(pin, ns)
	if len(failures) != 0 || !strings.Contains(out, "4.00x vs BenchmarkE/mode=sampled (medians of 3 and 3;") {
		t.Fatalf("want the median ratio 4.00x to pass, got %v:\n%s", failures, out)
	}
	pin[0].ratio = 4.5
	if _, failures := checkRequirements(pin, ns); len(failures) != 1 {
		t.Fatalf("want the median ratio 4.00x to fail a 4.5 pin, got %v", failures)
	}
}

// TestRunExitStatus drives the command end to end on the CI pins.
func TestRunExitStatus(t *testing.T) {
	pins := []string{
		"-require", "BenchmarkTableIVParallelSpeedup/workers=all:BenchmarkTableIVParallelSpeedup/workers=1:2.0",
		"-require", "BenchmarkSweepParallelSpeedup/workers=all:BenchmarkSweepParallelSpeedup/workers=1:2.0",
		"-require", "BenchmarkMetricsOverhead/telemetry=on:BenchmarkMetricsOverhead/telemetry=off:0.8",
		"-require", "BenchmarkLeakageEnumeration/mode=exhaustive:BenchmarkLeakageEnumeration/mode=sampled:2.0",
	}
	cases := []struct {
		name  string
		input string
		args  []string
		want  int
	}{
		// TableIV 2.50x, MetricsOverhead 0.70x: the telemetry pin fails.
		{"ratio below pin", benchOutput, pins, 1},
		{"missing workers=all on a single-core runner", `BenchmarkTableIVParallelSpeedup/workers=1 	1	150000000 ns/op
--- SKIP: BenchmarkTableIVParallelSpeedup/workers=all
BenchmarkMetricsOverhead/telemetry=off 	1	1400000 ns/op
BenchmarkMetricsOverhead/telemetry=on 	1	1500000 ns/op
PASS
`, pins[:6], 0},
		{"all pins hold", strings.Replace(benchOutput, "2000000 ns/op", "1500000 ns/op", 1), pins, 0},
		{"medians of repeated lines hold", countOutput,
			[]string{"-require", "BenchmarkE/mode=exhaustive:BenchmarkE/mode=sampled:2.0"}, 0},
		{"no benchmark results", "PASS\nok  \trepro\t0.1s\n", pins, 2},
		{"one-name form rejected", benchOutput, []string{"-require", "BenchmarkX:2.0"}, 2},
		{"no pins", benchOutput, nil, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, strings.NewReader(c.input), &stdout, &stderr); got != c.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}
