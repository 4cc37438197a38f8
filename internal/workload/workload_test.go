package workload

import (
	"testing"
)

func TestSuiteComplete(t *testing.T) {
	if n := SuiteSize(); n != 12 {
		t.Fatalf("suite has %d benchmarks", n)
	}
	seen := map[string]bool{}
	for i := 0; i < SuiteSize(); i++ {
		g := SuiteBenchmark(i, 1)
		if g.Name() == "" {
			t.Error("unnamed generator in suite")
		}
		if seen[g.Name()] {
			t.Errorf("duplicate benchmark %q", g.Name())
		}
		seen[g.Name()] = true
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("mcf", 1)
	if err != nil || g.Name() != "mcf" {
		t.Errorf("ByName(mcf) = %v, %v", g, err)
	}
	if _, err := ByName("doom", 1); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "libquantum", "bzip2", "milc"} {
		a, _ := ByName(name, 7)
		b, _ := ByName(name, 7)
		for i := 0; i < 1000; i++ {
			if a.Next() != b.Next() {
				t.Fatalf("%s: streams diverge at %d", name, i)
			}
		}
	}
}

func TestResetRestartsStream(t *testing.T) {
	g, _ := ByName("gcc", 3)
	var first []Access
	for i := 0; i < 100; i++ {
		first = append(first, g.Next())
	}
	g.Reset(3 + 2*1315423911) // gcc is suite index 2
	for i := 0; i < 100; i++ {
		if g.Next() != first[i] {
			t.Fatalf("Reset did not restart stream at %d", i)
		}
	}
}

func TestSequentialIsSequential(t *testing.T) {
	g, _ := ByName("libquantum", 1)
	prev := g.Next().Addr
	for i := 0; i < 1000; i++ {
		cur := g.Next().Addr
		if cur != prev+64 && cur != 0 { // wraps at buffer end
			t.Fatalf("non-sequential step %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestZipfIsSkewed(t *testing.T) {
	g, _ := ByName("gcc", 5)
	counts := map[uint64]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[g.Next().Addr]++
	}
	// A Zipf stream concentrates: the top 10% of touched lines must
	// carry well over 10% of accesses.
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	top := 0
	total := 0
	max10 := len(all) / 10
	// Selection without sort package gymnastics: count accesses above a
	// threshold found by scanning.
	for _, c := range all {
		total += c
	}
	// Simple: find the max10 largest by repeated max scan (small n).
	used := make([]bool, len(all))
	for k := 0; k < max10; k++ {
		best, bi := -1, -1
		for i, c := range all {
			if !used[i] && c > best {
				best, bi = c, i
			}
		}
		used[bi] = true
		top += best
	}
	if float64(top)/float64(total) < 0.3 {
		t.Errorf("top 10%% of lines carry only %.1f%% of accesses; not Zipf-like",
			100*float64(top)/float64(total))
	}
}

func TestPointerChaseCoversWorkingSet(t *testing.T) {
	g, _ := ByName("mcf", 9)
	seen := map[uint64]bool{}
	for i := 0; i < 1<<16; i++ {
		seen[g.Next().Addr] = true
	}
	// The permutation cycle must cover the full working set.
	if len(seen) != 1<<16 {
		t.Errorf("pointer chase visited %d distinct lines, want %d", len(seen), 1<<16)
	}
}

func TestMixedHasTwoRegions(t *testing.T) {
	g, _ := ByName("bzip2", 11)
	var hot, cold int
	for i := 0; i < 10000; i++ {
		if g.Next().Addr >= 1<<30 {
			cold++
		} else {
			hot++
		}
	}
	if hot == 0 || cold == 0 {
		t.Errorf("mixed workload degenerate: hot=%d cold=%d", hot, cold)
	}
	if hot < cold {
		t.Errorf("hot region should dominate: hot=%d cold=%d", hot, cold)
	}
}
