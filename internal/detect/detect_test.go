package detect

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/perfctr"
	"repro/internal/sched"
)

func smtSetup(seed uint64) *core.Setup {
	return core.NewSetup(core.Config{
		Algorithm: core.Alg1SharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: seed,
	})
}

func TestVerdictString(t *testing.T) {
	if Benign.String() != "benign" || Suspicious.String() != "suspicious" {
		t.Error("verdict strings")
	}
}

func TestMonitorAbstainsOnTinySamples(t *testing.T) {
	m := NewMonitor(Thresholds{})
	rep := perfctr.Report{}
	rep.L1D.Accesses, rep.L1D.Misses = 10, 10
	if m.Classify(rep) != Benign {
		t.Error("monitor decided on 10 accesses")
	}
}

// The Section VII / Table VI claim, end to end: a miss-rate monitor flags
// the Flush+Reload sender but NOT the LRU-channel sender.
func TestLRUChannelEvadesDetector(t *testing.T) {
	m := NewMonitor(Thresholds{})

	// Flush+Reload (mem) sender: flagged.
	sFR := core.NewSetup(core.Config{
		Algorithm: core.FlushReloadMem, Mode: sched.SMT,
		Tr: 600, Ts: 6000, Seed: 1,
	})
	sFR.Run([]byte{1, 0}, true, 600, 1<<40)
	if v := m.Classify(perfctrCollect(sFR)); v != Suspicious {
		t.Errorf("F+R sender classified %v; detector should catch it\n%s",
			v, m.Explain(perfctrCollect(sFR)))
	}

	// LRU sender: not flagged, despite actively exfiltrating.
	sLRU := smtSetup(2)
	sLRU.Run([]byte{1, 0}, true, 300, 1<<40)
	if v := m.Classify(perfctrCollect(sLRU)); v != Benign {
		t.Errorf("LRU sender classified %v; the channel should be stealthy\n%s",
			v, m.Explain(perfctrCollect(sLRU)))
	}
}

func TestAlg2SenderAlsoEvades(t *testing.T) {
	m := NewMonitor(Thresholds{})
	s := core.NewSetup(core.Config{
		Algorithm: core.Alg2NoSharedMemory, Mode: sched.SMT,
		Tr: 600, Ts: 6000, D: 1, Seed: 3,
	})
	s.Run([]byte{1, 0}, true, 300, 1<<40)
	if v := m.Classify(perfctrCollect(s)); v != Benign {
		t.Errorf("Algorithm 2 sender classified %v", v)
	}
}

func TestExplainMentionsEvidence(t *testing.T) {
	m := NewMonitor(Thresholds{})
	s := smtSetup(4)
	s.Run([]byte{1}, true, 100, 1<<40)
	out := m.Explain(perfctrCollect(s))
	if !strings.Contains(out, "L1D miss") || !strings.Contains(out, "benign") {
		t.Errorf("explanation incomplete: %q", out)
	}
}

func TestCustomThresholdsRespected(t *testing.T) {
	strict := NewMonitor(Thresholds{MinAccesses: 1, L1MissRate: 0, L2MissRate: 2, MinL2Refs: 1 << 62})
	rep := perfctr.Report{}
	rep.L1D.Accesses, rep.L1D.Misses = 100, 1
	if strict.Classify(rep) != Suspicious {
		t.Error("zero-tolerance L1 threshold did not trip")
	}
}

func perfctrCollect(s *core.Setup) perfctr.Report {
	return perfctr.Collect(s.Hier, core.ReqSender)
}
