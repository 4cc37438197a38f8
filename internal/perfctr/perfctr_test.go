package perfctr

import (
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/replacement"
	"repro/internal/uarch"
)

func rig(withLLC bool) (*hier.Hierarchy, *mem.AddressSpace) {
	h := hier.New(hier.Config{
		Profile:  uarch.SandyBridge(),
		L1Policy: replacement.TreePLRU, L2Policy: replacement.TreePLRU,
		WithLLC: withLLC,
	})
	sys := mem.NewSystem(64)
	return h, sys.NewAddressSpace()
}

func TestCollectCounts(t *testing.T) {
	h, as := rig(true)
	a := as.Resolve(as.Alloc(1))
	h.Load(a, 0) // miss at every level
	h.Load(a, 0) // L1 hit
	rep := Collect(h, 0)
	if rep.L1D.Accesses != 2 || rep.L1D.Misses != 1 {
		t.Errorf("L1D = %+v", rep.L1D)
	}
	if rep.L2.Accesses != 1 || rep.L2.Misses != 1 {
		t.Errorf("L2 = %+v", rep.L2)
	}
	if !rep.HasLLC || rep.LLC.Accesses != 1 {
		t.Errorf("LLC = %+v (hasLLC %v)", rep.LLC, rep.HasLLC)
	}
	if got := rep.L1D.MissRate(); got != 0.5 {
		t.Errorf("L1D miss rate = %v", got)
	}
}

func TestCollectNoLLC(t *testing.T) {
	h, as := rig(false)
	h.Load(as.Resolve(as.Alloc(1)), 0)
	rep := Collect(h, 0)
	if rep.HasLLC {
		t.Error("reported an LLC that does not exist")
	}
	if strings.Contains(rep.String(), "LLC") {
		t.Error("render mentions absent LLC")
	}
}

func TestCollectSeparatesRequestors(t *testing.T) {
	h, as := rig(false)
	a := as.Resolve(as.Alloc(1))
	b := as.Resolve(as.Alloc(1))
	h.Load(a, 0)
	h.Load(b, 1)
	h.Load(b, 1)
	if got := Collect(h, 0).L1D.Accesses; got != 1 {
		t.Errorf("requestor 0 accesses = %d", got)
	}
	if got := Collect(h, 1).L1D.Accesses; got != 2 {
		t.Errorf("requestor 1 accesses = %d", got)
	}
	if got := Collect(h, 7).L1D.Accesses; got != 0 {
		t.Errorf("unknown requestor accesses = %d", got)
	}
}

func TestCombinedSumsAndRenders(t *testing.T) {
	h, as := rig(true)
	h.Load(as.Resolve(as.Alloc(1)), 0)
	h.Load(as.Resolve(as.Alloc(1)), 1)
	both := CollectCombined(h, 0, 1)
	if both.L1D.Accesses != 2 || both.L1D.Misses != 2 {
		t.Errorf("combined = %+v", both.L1D)
	}
	out := both.String()
	if !strings.Contains(out, "L1D") || !strings.Contains(out, "LLC") {
		t.Errorf("render %q incomplete", out)
	}
}
