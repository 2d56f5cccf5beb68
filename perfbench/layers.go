package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"

	"spiffi"
	"spiffi/internal/core"
)

// hostModules are the modules whose host-time share is reported; the
// profile charges every repository module, these are the ones an
// optimisation is most likely to move.
var hostModules = []string{
	"sim", "terminal", "server", "bufferpool", "prefetch", "dsched",
	"disk", "mpeg", "cache", "core", "trace",
}

// profileHz is the CPU profile's sampling rate.
const profileHz = 500

// warmSetups is how many warm NewSimulation calls core.setup_ms takes
// the median of.
const warmSetups = 5

// perLayer runs the workload traced and profiled and returns the
// per-layer metrics. The budget is split in two halves: first untraced
// and traced executions alternate (trace overhead, kernel throughput,
// Runner utilisation), then traced executions run under a CPU profile
// (host time per module).
func (b *bench) perLayer() ([]metric, error) {
	setup, err := coldSetup(b.sp, b.root, b.w, b.seed, setupProbes)
	if err != nil {
		return nil, err
	}
	if err := b.reference(); err != nil {
		return nil, err
	}
	setupMs, err := b.warmSetupMs()
	if err != nil {
		return nil, err
	}

	var plain, traced []rep
	loop(b.budget/2, func() {
		if r, ok := b.rep("rep", false); ok {
			plain = append(plain, r)
		}
		if r, ok := b.rep("traced-rep", true); ok {
			traced = append(traced, r)
		}
	})
	if len(plain) == 0 || len(traced) == 0 {
		return nil, fmt.Errorf("%s seed %d: every timed execution failed", b.w.name, b.seed)
	}
	tracedRun := traced[0].out.measured()[0]
	if err := b.exportTrace(tracedRun); err != nil {
		return nil, err
	}

	var prof bytes.Buffer
	// StartCPUProfile keeps a rate set beforehand (the runtime notes on
	// stderr that it cannot change it); 100 Hz would leave a few
	// hundred samples in a short run.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	loop(b.budget/2, func() { b.exec(b.root, true) })
	pprof.StopCPUProfile()
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares := hostShares(samples)

	var out []metric
	for _, mod := range hostModules {
		out = append(out, metric{mod + ".host_share", "fraction", shares[mod]})
	}
	out = append(out,
		metric{"runtime.sched_share", "fraction", shares[bucketSched]},
		metric{"runtime.gc_share", "fraction", shares[bucketGC]},
	)
	out = append(out, b.kernelMetrics(plain)...)
	out = append(out,
		metric{"mpeg.library_s", "s", setup.Library},
		metric{"core.setup_ms", "ms", setupMs},
	)
	out = append(out, b.runnerMetrics(plain)...)
	out = append(out, simulatedLayerMetrics(tracedRun)...)
	out = append(out,
		metric{"trace.overhead", "fraction", medianOf(traced, wallSeconds)/medianOf(plain, wallSeconds) - 1},
		metric{"trace.events", "count", float64(tracedRun.Trace.Total)},
	)
	return out, nil
}

// warmSetupMs times NewSimulation with the library already generated.
func (b *bench) warmSetupMs() (float64, error) {
	cfg := b.w.config(b.seed)
	var xs []float64
	for i := 0; i < warmSetups; i++ {
		id := b.sp.begin("NewSimulation", b.root)
		_, err := core.NewSimulation(cfg)
		d := b.sp.end(id)
		if err != nil {
			return 0, fmt.Errorf("warm set-up: %w", err)
		}
		xs = append(xs, float64(d)/millis)
	}
	return median(xs), nil
}

// exportTrace renders a traced run's snapshot, as a user exporting it
// would, and discards the bytes.
func (b *bench) exportTrace(m core.Metrics) error {
	id := b.sp.begin("ExportTrace", b.root)
	defer b.sp.end(id)
	if m.Trace == nil {
		return fmt.Errorf("%s seed %d: traced run carries no trace", b.w.name, b.seed)
	}
	if err := spiffi.ExportTrace(io.Discard, m.Trace, "jsonl"); err != nil {
		return fmt.Errorf("export trace: %w", err)
	}
	return nil
}

// kernelMetrics measures event throughput and allocation per event on
// single runs: the untraced repetitions of a single-run workload, or
// for a search fresh runs of its first at-max configuration.
func (b *bench) kernelMetrics(plain []rep) []metric {
	runs := plain
	if b.w.search {
		// The at-max run must reproduce the search's own result for
		// its seed.
		cfg := b.w.config(b.seed)
		cfg.Terminals = b.ref.search.MaxTerminals
		cfg.Seed = searchOptions(b.seed).Seeds[0]
		want := metricsDigest(b.ref.search.AtMax[0])
		runs = nil
		for i := 0; i < 3; i++ {
			r := timed(func() outcome {
				id := b.sp.begin("at-max-run", b.root)
				defer b.sp.end(id)
				m, err := runSingle(b.sp, id, cfg)
				o := outcome{single: m, runs: 1}
				b.settle(o, err, want)
				return o
			})
			runs = append(runs, r)
		}
	}
	events := float64(runs[0].out.single.Events)
	return []metric{
		{"sim.events", "count", events},
		{"sim.events_per_s", "1/s", events / medianOf(runs, wallSeconds)},
		{"sim.allocs_per_event", "count", medianOf(runs, func(r rep) float64 { return float64(r.mallocs) }) / events},
		{"sim.bytes_per_event", "B", medianOf(runs, func(r rep) float64 { return float64(r.alloc) }) / events},
	}
}

// runnerMetrics reports how much of the Runner's work the search used
// and how busy its workers were. A single run is a one-run search on one
// worker.
func (b *bench) runnerMetrics(plain []rep) []metric {
	runs, total, workers := 1.0, 1.0, 1.0
	if b.w.search {
		runs = float64(b.ref.search.Runs)
		total = medianOf(plain, func(r rep) float64 { return float64(r.out.search.TotalRuns) })
		workers = float64(runtime.NumCPU())
	}
	util := medianOf(plain, func(r rep) float64 { return r.cpu.Seconds() / (r.wall.Seconds() * workers) })
	return []metric{
		{"core.search_runs", "count", runs},
		{"core.search_total_runs", "count", total},
		{"core.search_useful_frac", "fraction", runs / total},
		{"core.runner_cpu_util", "fraction", util},
	}
}

// simulatedLayerMetrics reads the modelled server's per-layer figures
// from one traced run.
func simulatedLayerMetrics(m core.Metrics) []metric {
	t := m.Trace
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var premiere int64
	for _, p := range m.PhaseStats {
		if p.Name == "premiere" {
			premiere += p.Glitches
		}
	}
	return []metric{
		{"terminal.glitches", "count", float64(m.Glitches)},
		{"terminal.resp_avg_ms", "ms", float64(m.RespTimeAvg) / millis},
		{"terminal.resp_p99_ms", "ms", float64(m.RespTimeP99) / millis},
		{"disk.util_avg", "fraction", m.DiskUtilAvg},
		{"disk.util_max", "fraction", m.DiskUtilMax},
		{"disk.reads", "count", float64(t.DiskService.Count())},
		{"disk.wait_p99_ms", "ms", t.DiskWait.Quantile(0.99) * 1e3},
		{"disk.service_p50_ms", "ms", t.DiskService.Quantile(0.50) * 1e3},
		{"network.delay_p99_us", "us", t.NetDelay.Quantile(0.99) * 1e6},
		{"bufferpool.hit_frac", "fraction", m.Pool.HitFraction()},
		{"bufferpool.evictions", "count", float64(m.Pool.Evictions)},
		{"bufferpool.alloc_waits", "count", float64(m.Pool.AllocWaits)},
		{"server.prefetches", "count", float64(m.Nodes.Prefetches)},
		{"server.prefetch_skip_frac", "fraction", frac(m.Pool.PrefetchSkip, m.Nodes.Prefetches+m.Pool.PrefetchSkip)},
		{"cpu.util_max", "fraction", m.CPUUtilMax},
		{"cache.hit_frac", "fraction", frac(m.CacheHits, m.CacheHits+m.CacheMisses)},
		{"cache.evictions", "count", float64(m.CacheEvictions)},
		{"core.merges", "count", float64(m.Merges)},
		{"core.merged_blocks", "count", float64(m.MergedBlocks)},
		{"admission.rejected", "count", float64(m.AdmRejected)},
		{"admission.wait_avg_ms", "ms", float64(m.AdmWaitAvg) / millis},
		{"overload.sheds", "count", float64(m.Sheds)},
		{"overload.limit_min", "count", float64(m.AdmLimitMin)},
		{"workload.premiere_glitches", "count", float64(premiere)},
	}
}
