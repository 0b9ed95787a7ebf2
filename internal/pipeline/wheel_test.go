package pipeline

import (
	"testing"

	"visasim/internal/config"
	"visasim/internal/iqorg"
	"visasim/internal/isa"
)

// TestWheelCoversModeledLatencies pins the completion wheel's sizing
// invariant against the model it guards. config.Machine.Validate admits a
// machine only when WorstCompletionDelta fits the wheel, so that bound
// must cover every latency the backend can add to an issued uop: the
// worst-case data access (DTLB miss + L1D miss + L2 miss to memory), the
// slowest functional unit, and the largest protection-mode wakeup adder.
// Anyone growing a latency or adding a protection mode trips this test
// before a valid machine can trip wheelPush's panic.
func TestWheelCoversModeledLatencies(t *testing.T) {
	if wheelSize != config.CompletionWheelSize {
		t.Fatalf("wheelSize %d, config.CompletionWheelSize %d", wheelSize, config.CompletionWheelSize)
	}
	m := config.Default()
	worstData := m.DTLB.MissPenalty + m.L1D.HitLatency + m.L2.HitLatency + m.MemoryLatency

	maxFU := 0
	for k := isa.Kind(0); k < isa.Kind(isa.NumKinds); k++ {
		if l := k.Latency(); l > maxFU {
			maxFU = l
		}
	}

	maxWake := 0
	for _, p := range iqorg.Protections() {
		if w := p.Cost().WakeupLatency; w > maxWake {
			maxWake = w
		}
	}
	if maxWake > config.MaxProtectionWakeup {
		t.Fatalf("protection wakeup adder %d exceeds config.MaxProtectionWakeup %d",
			maxWake, config.MaxProtectionWakeup)
	}

	worst := worstData + maxFU + maxWake
	if bound := m.WorstCompletionDelta(); worst > bound {
		t.Fatalf("modelled worst-case completion delta %d (data %d + FU %d + wakeup %d) exceeds WorstCompletionDelta %d",
			worst, worstData, maxFU, maxWake, bound)
	}
	if worst >= wheelSize {
		t.Fatalf("default machine's worst-case completion delta %d >= wheelSize %d", worst, wheelSize)
	}
	t.Logf("worst-case completion delta %d of wheelSize %d (data %d, FU %d, wakeup %d)",
		worst, wheelSize, worstData, maxFU, maxWake)
}
