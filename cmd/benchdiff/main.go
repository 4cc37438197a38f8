// Command benchdiff enforces sibling-ratio pins on `go test -bench`
// output. It reads the benchmark text from stdin and checks each
//
//	-require fast:slow:ratio
//
// pin as ns/op(slow) / ns/op(fast) >= ratio. A benchmark run with
// -count N prints N result lines, and each side of a pin is the median
// ns/op over its lines, so one slow sample cannot decide a pin. Both
// benchmarks come from the same run, so a pin is immune to the
// runner's absolute speed; it is how the parallel-speedup,
// telemetry-overhead and enumeration pins are expressed. Names are given without the -N GOMAXPROCS suffix that
// go test appends. A pinned benchmark missing from the run is a
// warning, not a failure: single-core runners skip the workers=all
// variants.
//
// Exit status: 0 when every pin present in the run holds, 1 when one
// falls below its ratio, 2 on a usage error or input with no
// benchmark results.
//
// Usage:
//
//	go test -run xxx -bench ParallelSpeedup -benchtime 5x -count 3 . |
//		go run ./cmd/benchdiff -require 'BenchmarkX/workers=all:BenchmarkX/workers=1:2.0'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// requirement is one -require pin: name must run at least ratio times
// faster than reference.
type requirement struct {
	name      string
	reference string
	ratio     float64
}

func parseRequire(s string) (requirement, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" {
		return requirement{}, fmt.Errorf("want fast:slow:ratio, got %q", s)
	}
	ratio, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || ratio <= 0 {
		return requirement{}, fmt.Errorf("bad ratio in %q", s)
	}
	return requirement{name: parts[0], reference: parts[1], ratio: ratio}, nil
}

// parseBench returns every ns/op sample per benchmark from go test
// -bench output, one per result line. Lines that are not benchmark
// results (goos:, pkg:, PASS, ok, --- SKIP, logs) are ignored.
func parseBench(r io.Reader) (map[string][]float64, error) {
	ns := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] == "ns/op" {
				if v, err := strconv.ParseFloat(f[i], 64); err == nil {
					name := stripProcs(f[0])
					ns[name] = append(ns[name], v)
				}
				break
			}
		}
	}
	return ns, sc.Err()
}

// stripProcs removes the -N GOMAXPROCS suffix go test appends to a
// benchmark name when GOMAXPROCS > 1.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// median returns the median of vs (the mean of the middle two for an
// even count), or 0 for none. It sorts vs in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// checkRequirements evaluates the pins against one run's ns/op samples,
// comparing the medians of the two sides, and returns the report text
// plus one line per failed pin.
func checkRequirements(reqs []requirement, ns map[string][]float64) (report string, failures []string) {
	var b strings.Builder
	for _, req := range reqs {
		fast, slow := median(ns[req.name]), median(ns[req.reference])
		runs := fmt.Sprintf("medians of %d and %d", len(ns[req.name]), len(ns[req.reference]))
		switch {
		case fast <= 0:
			fmt.Fprintf(&b, "- %s: not in this run (skipped: partial or single-core invocation)\n", req.name)
		case slow <= 0:
			fmt.Fprintf(&b, "- %s: reference %s not in this run (skipped)\n", req.name, req.reference)
		case slow/fast >= req.ratio:
			fmt.Fprintf(&b, "- %s: %.2fx vs %s (%s; required %.2fx) ok\n", req.name, slow/fast, req.reference, runs, req.ratio)
		default:
			fmt.Fprintf(&b, "- %s: %.2fx vs %s (%s), required %.2fx FAIL\n", req.name, slow/fast, req.reference, runs, req.ratio)
			failures = append(failures, fmt.Sprintf("%s: %.2fx vs %s below required %.2fx",
				req.name, slow/fast, req.reference, req.ratio))
		}
	}
	return b.String(), failures
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var reqs []requirement
	fs.Func("require", "sibling speedup pin fast:slow:ratio (repeatable)", func(s string) error {
		req, err := parseRequire(s)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if len(reqs) == 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchdiff: want one or more -require fast:slow:ratio and bench output on stdin")
		fs.Usage()
		return 2
	}
	ns, err := parseBench(stdin)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if len(ns) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark results on stdin")
		return 2
	}
	report, failures := checkRequirements(reqs, ns)
	fmt.Fprint(stdout, report)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stderr, "benchdiff: %s\n", f)
		}
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
