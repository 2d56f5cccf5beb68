package main

import (
	"testing"

	"spiffi/internal/core"
	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// TestMetricsDigestCoversEveryField checks that the digest sees fields
// Metrics.String leaves out or rounds, and ignores the trace snapshot.
func TestMetricsDigestCoversEveryField(t *testing.T) {
	base := core.Metrics{Terminals: 200, Started: true, DiskUtilAvg: 0.5}
	ref := metricsDigest(base)
	changes := map[string]func(*core.Metrics){
		"Events":         func(m *core.Metrics) { m.Events++ },
		"Pool.Evictions": func(m *core.Metrics) { m.Pool.Evictions++ },
		"RespTimeP99":    func(m *core.Metrics) { m.RespTimeP99 += sim.Millisecond },
		"DiskUtilAvg":    func(m *core.Metrics) { m.DiskUtilAvg += 1e-9 },
		"PhaseStats": func(m *core.Metrics) {
			m.PhaseStats = []core.PhaseMetrics{{Name: "premiere", Sheds: 1}}
		},
	}
	for name, change := range changes {
		m := base
		change(&m)
		if metricsDigest(m) == ref {
			t.Errorf("changing %s leaves the digest unchanged", name)
		}
	}
	traced := base
	traced.Trace = &trace.Data{Total: 7}
	if metricsDigest(traced) != ref {
		t.Error("the trace snapshot changes the digest")
	}
}
