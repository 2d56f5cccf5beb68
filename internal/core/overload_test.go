package core_test

import (
	"reflect"
	"testing"

	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// An admission limit no stream ever queues against is inert: every
// Admit succeeds immediately (no kernel events, no RNG), so the run is
// identical to the ungated run except for the admission bookkeeping.
func TestAdmissionInertAtHighLimit(t *testing.T) {
	bare, err := core.Run(tinyConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(16)
	cfg.Overload.AdmitLimit = 16
	gated, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gated.AdmWaited != 0 || gated.AdmRejected != 0 {
		t.Fatalf("nothing should queue at limit >= terminals: waited=%d rejected=%d",
			gated.AdmWaited, gated.AdmRejected)
	}
	if gated.Admitted < 16 {
		t.Fatalf("admitted = %d, want >= one per terminal", gated.Admitted)
	}
	gated.Admitted = 0
	gated.AdmLimit = 0
	gated.AdmLimitMin = 0
	if !reflect.DeepEqual(bare, gated) {
		t.Fatalf("inert admission gate changed the run:\n%+v\n%+v", bare, gated)
	}
}

// A disk fail-stop at full load collapses the measured slack: the
// estimator must shed streams and pull the admission limit down, then
// restore the shed streams and raise the limit once the repair heals
// the system — convergence in both directions.
func TestEstimatorShedsAndRestores(t *testing.T) {
	// Slightly above the tiny system's ~40-stream capacity: healthy
	// disks hold the load, but a dead disk's failover traffic pushes
	// its mirror neighbor over the edge.
	cfg := tinyConfig(44)
	cfg.ReplicateVideos = true
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 50 * sim.Millisecond
	cfg.MeasureTime = 90 * sim.Second
	cfg.Overload.AdmitLimit = 44
	cfg.Overload.Adaptive = true
	cfg.Overload.Shed = true
	s, err := core.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 10*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Started {
		t.Fatal("never started")
	}
	if m.Sheds == 0 || m.ShedPeak == 0 {
		t.Fatalf("failure pressure shed nothing: %+v", m)
	}
	if m.AdmLimitMin >= cfg.Overload.AdmitLimit {
		t.Fatalf("adaptive limit never moved: min=%d limit=%d", m.AdmLimitMin, cfg.Overload.AdmitLimit)
	}
	if m.Restores == 0 {
		t.Fatalf("recovery after repair restored nothing: sheds=%d restores=%d", m.Sheds, m.Restores)
	}
	if m.DegradedBlocks == 0 || m.DegradedFrames == 0 {
		t.Fatalf("shed streams skipped nothing: blocks=%d frames=%d", m.DegradedBlocks, m.DegradedFrames)
	}
	if m.ProtectedTerminals != 22 {
		t.Fatalf("protected terminals = %d, want the default half", m.ProtectedTerminals)
	}
}

// rebuildProbeCfg is the small mirrored system the redundancy-window
// tests script: disk 0's primaries keep their replicas on disk 1.
func rebuildProbeCfg() core.Config {
	cfg := core.DefaultConfig(8)
	cfg.Nodes = 2
	cfg.DisksPerNode = 2
	cfg.VideosPerDisk = 1
	cfg.Video.Length = sim.Minute
	cfg.ServerMemBytes = 16 * core.MB
	cfg.StartWindow = 10 * sim.Second
	cfg.MeasureTime = 80 * sim.Second
	cfg.StartupGrace = 5 * sim.Minute
	cfg.ReplicateVideos = true
	cfg.RequestTimeout = 2 * sim.Second
	cfg.MaxRetries = 3
	cfg.RetryBackoff = 50 * sim.Millisecond
	cfg.Overload.RebuildRate = 16 * core.MB
	return cfg
}

// During the window of vulnerability — disk 0 repaired but its copies
// not yet rebuilt — a second failure of the neighbor holding the only
// healthy copies loses blocks: both LocateCopy addresses are
// unavailable (one stale, one dead).
func TestSecondFailureDuringRebuildLosesBlocks(t *testing.T) {
	s, err := core.NewSimulation(rebuildProbeCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 5*sim.Second)
	s.ScheduleDiskFailStop(1, sim.Time(37*sim.Second), 5*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.StaleNacks == 0 {
		t.Fatalf("repaired disk served stale copies without a NACK: %+v", m)
	}
	if m.Nodes.StaleNacks != m.StaleNacks {
		t.Fatalf("node stale NACKs %d != reported %d", m.Nodes.StaleNacks, m.StaleNacks)
	}
	if m.LostBlocks == 0 {
		t.Fatalf("overlapping failures inside the window lost nothing: %+v", m)
	}
	if m.RebuiltBlocks == 0 {
		t.Fatal("rebuild never progressed")
	}
}

// After the rebuild closes the window, every stale copy has been
// re-copied from its mirror: the same second failure loses nothing,
// because LocateCopy's replica addresses are all readable again.
func TestRebuildClosesRedundancyWindow(t *testing.T) {
	s, err := core.NewSimulation(rebuildProbeCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.ScheduleDiskFailStop(0, sim.Time(30*sim.Second), 5*sim.Second)
	s.ScheduleDiskFailStop(1, sim.Time(75*sim.Second), 5*sim.Second)
	m, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.RebuildWindows == 0 || m.RebuiltBlocks == 0 {
		t.Fatalf("rebuild never completed: windows=%d rebuilt=%d", m.RebuildWindows, m.RebuiltBlocks)
	}
	if m.RebuildWindowMax <= 5*sim.Second {
		t.Fatalf("window %v must include the downtime plus the paced rebuild", m.RebuildWindowMax)
	}
	if m.LostBlocks != 0 {
		t.Fatalf("post-rebuild failure lost %d blocks; the redundancy window should be closed", m.LostBlocks)
	}
	if m.RebuildIOs == 0 {
		t.Fatal("no disk transfers were attributed to the rebuild class")
	}
}

// Mirror rebuild configured without replication is rejected: there is
// no healthy copy to rebuild from.
func TestRebuildRequiresMirroring(t *testing.T) {
	cfg := rebuildProbeCfg()
	cfg.ReplicateVideos = false
	if err := cfg.Validate(); err == nil {
		t.Fatal("rebuild without replicas validated")
	}
}
