package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"spiffi"
	"spiffi/internal/core"
	"spiffi/internal/sim"
)

// premiereSpec is the storms experiment's flash crowd: steady viewing,
// a premiere that triples arrivals onto one video with doubled seeking,
// then a recovery under a reshuffled popularity ranking.
const premiereSpec = "think=20s; steady:60s; " +
	"premiere:45s load=3 promote=0 share=0.7 seekboost=2; recover:* shuffle"

// stormCapacity is the steady glitch-free capacity of the storms system
// (capacity search over "think=20s; steady:*", step 20, seed 1). The
// premiere-storm workload offers 25% more terminals than this and uses
// it as the adaptive admission limit, as the storms experiment does.
const stormCapacity = 300

// workload is one named benchmark input. A single-run workload executes
// one simulation of config(seed); a search workload executes
// FindMaxTerminals over it with searchOptions(seed) on a Runner with one
// worker per CPU.
type workload struct {
	name   string
	search bool
	config func(seed uint64) core.Config
}

var workloads = []workload{
	{name: "steady-base", config: steadyBase},
	{name: "memory-search", search: true, config: memorySearch},
	{name: "premiere-storm", config: premiereStorm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchTimings shortens videos and windows to the experiment suite's
// bench fidelity; the system itself is the paper's.
func benchTimings(cfg *core.Config, seed uint64) {
	cfg.Seed = seed + 1
	cfg.LibrarySeed = seed + 1
	cfg.Video.Length = 6 * sim.Minute
	cfg.MeasureTime = 45 * sim.Second
	cfg.StartWindow = 20 * sim.Second
}

// steadyBase is the §7 base system (16 disks, 4 GB, 512 KB stripes,
// elevator, global LRU, basic prefetch) at 200 terminals, below the knee,
// with every extension off.
func steadyBase(seed uint64) core.Config {
	cfg := core.DefaultConfig(200)
	benchTimings(&cfg, seed)
	return cfg
}

// memorySearch is Figure 12's memory-pressure point: 512 MB, real-time
// scheduling (3 classes, 4 s), love prefetch and delayed prefetch with a
// 4 s maximum advance. Terminals is the search's starting count.
func memorySearch(seed uint64) core.Config {
	cfg := core.DefaultConfig(searchStep)
	benchTimings(&cfg, seed)
	cfg.ServerMemBytes = 512 * core.MB
	cfg.Sched = spiffi.RealTimeSched(3, 4*sim.Second)
	cfg.Replacement = spiffi.ReplaceLovePrefetch
	cfg.Prefetch = spiffi.PrefetchConfig{Mode: spiffi.PrefetchDelayed, MaxAdvance: 4 * sim.Second}
	return cfg
}

// searchStep is the memory-search resolution (the bench fidelity's).
const searchStep = 20

func searchOptions(seed uint64) core.SearchOptions {
	return core.SearchOptions{Step: searchStep, Seeds: []uint64{2*seed + 1, 2*seed + 2}}
}

// premiereStorm is the storms experiment's hardened posture at 125% of
// steady capacity: zipf-rank prefix cache with decay (and so stream
// merging), adaptive admission with shedding, and hysteresis, with a
// queue-depth pressure threshold low enough that overload control acts.
func premiereStorm(seed uint64) core.Config {
	cfg := core.DefaultConfig(stormCapacity + stormCapacity/4)
	cfg.Seed = seed + 1
	cfg.LibrarySeed = seed + 1
	cfg.ServerMemBytes = 96 * core.MB
	cfg.TerminalMemBytes = 16 * core.MB
	cfg.RandomInitialPosition = false
	cfg.Video.Length = 90 * sim.Second
	cfg.StartWindow = 30 * sim.Second
	cfg.MeasureTime = 2 * sim.Minute
	wl, err := spiffi.ParseWorkloadSpec(premiereSpec)
	if err != nil {
		panic(err) // premiereSpec is a constant
	}
	cfg.Workload = wl
	cfg.Overload.AdmitLimit = stormCapacity
	cfg.Overload.Adaptive = true
	cfg.Overload.Shed = true
	cfg.Overload.HoldAfterCut = 5 * sim.Second
	cfg.Overload.RaiseStreak = 2
	// The storms experiment keeps the default queue-depth threshold of
	// 16, at which this load never cuts the limit or sheds. At 7 the
	// premiere makes the controller shed and cut the limit, and
	// admission waits and rejects follow, on each of seeds 1-20.
	cfg.Overload.QueueHigh = 7
	cfg.Cache = spiffi.CacheConfig{BudgetBytes: 32 * core.MB, Policy: spiffi.CacheZipfRank,
		PrefixBlocks: 16, DecayEvery: 2000}
	return cfg
}

// outcome is one execution of a workload: a single run has one Metrics,
// a search one SearchResult.
type outcome struct {
	single core.Metrics
	search *core.SearchResult // nil for a single run
	// runs counts the simulations the execution attempted.
	runs int
}

// execute runs the workload's fixed simulated work once, recording a
// span around each call into the simulator under parent.
func (w workload) execute(sp *spans, parent int, seed uint64, traced bool) (outcome, error) {
	cfg := w.config(seed)
	cfg.Trace = spiffi.TraceOptions{Enabled: traced}
	if w.search {
		id := sp.begin("FindMaxTerminals", parent)
		r, err := core.NewRunner(runtime.NumCPU()).FindMaxTerminals(cfg, searchOptions(seed))
		sp.end(id)
		return outcome{search: &r, runs: r.TotalRuns}, err
	}
	m, err := runSingle(sp, parent, cfg)
	return outcome{single: m, runs: 1}, err
}

// runSingle assembles and runs one simulation, with a span around each
// of the two calls.
func runSingle(sp *spans, parent int, cfg core.Config) (core.Metrics, error) {
	id := sp.begin("NewSimulation", parent)
	s, err := core.NewSimulation(cfg)
	sp.end(id)
	if err != nil {
		return core.Metrics{}, err
	}
	id = sp.begin("Run", parent)
	defer sp.end(id)
	return s.Run()
}

// check applies the correctness checks to one execution of a workload
// with the given seed and returns the first violation.
func (o outcome) check(seed uint64) error {
	if o.search == nil {
		return checkRun(o.single)
	}
	r := *o.search
	if r.Runs > r.TotalRuns {
		return fmt.Errorf("search consumed %d runs but executed only %d", r.Runs, r.TotalRuns)
	}
	if r.MaxTerminals <= 0 {
		return fmt.Errorf("search found no glitch-free count")
	}
	if want := len(searchOptions(seed).Seeds); len(r.AtMax) != want {
		return fmt.Errorf("search returned %d at-max runs, want %d", len(r.AtMax), want)
	}
	for i, m := range r.AtMax {
		if err := checkRun(m); err != nil {
			return fmt.Errorf("at-max run %d: %w", i, err)
		}
		if m.Glitches != 0 {
			return fmt.Errorf("at-max run %d has %d glitches", i, m.Glitches)
		}
	}
	return nil
}

// checkRun holds for every run the benchmark consumes: it started, and
// the buffer pool's demand references partition into hits, in-flight
// hits and misses.
func checkRun(m core.Metrics) error {
	if !m.Started {
		return fmt.Errorf("run with %d terminals never started", m.Terminals)
	}
	p := m.Pool
	if p.DemandHits+p.InFlightHits+p.Misses != p.DemandRefs {
		return fmt.Errorf("pool hits %d + in-flight %d + misses %d != demand refs %d",
			p.DemandHits, p.InFlightHits, p.Misses, p.DemandRefs)
	}
	return nil
}

// digest hashes the execution's simulated results: the measured runs'
// metrics and, for a search, its answer and consumed runs (not
// TotalRuns, which counts speculative probes and so depends on timing).
func (o outcome) digest() string {
	d := metricsDigest(o.measured()...)
	if o.search != nil {
		d = metricsDigest(o.search.AtMax...) + fmt.Sprintf(" max=%d runs=%d", o.search.MaxTerminals, o.search.Runs)
	}
	return d
}

// metricsDigest hashes every Metrics field but the trace snapshot. The
// Go-syntax verb prints each field in full; %v and %+v would call
// Metrics.String, a rounded summary of a few fields.
func metricsDigest(ms ...core.Metrics) string {
	h := sha256.New()
	for _, m := range ms {
		m.Trace = nil
		fmt.Fprintf(h, "%#v\n", m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measured returns the runs the simulated metrics describe: the single
// run, or a search's passing runs at its maximum.
func (o outcome) measured() []core.Metrics {
	if o.search != nil {
		return o.search.AtMax
	}
	return []core.Metrics{o.single}
}
