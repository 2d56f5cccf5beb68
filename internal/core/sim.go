package core

import (
	"spiffi/internal/admission"
	"spiffi/internal/cache"
	"spiffi/internal/cpu"
	"spiffi/internal/disk"
	"spiffi/internal/faults"
	"spiffi/internal/layout"
	"spiffi/internal/mpeg"
	"spiffi/internal/network"
	"spiffi/internal/overload"
	"spiffi/internal/proto"
	"spiffi/internal/rng"
	"spiffi/internal/server"
	"spiffi/internal/sim"
	"spiffi/internal/stats"
	"spiffi/internal/terminal"
	"spiffi/internal/trace"
	"spiffi/internal/workload"
)

// Simulation is one assembled run of the SPIFFI system.
type Simulation struct {
	cfg   Config
	k     *sim.Kernel
	lib   *mpeg.Library
	place *layout.Placement
	net   *network.Network
	nodes []*server.Node
	terms []*terminal.Terminal
	piggy *piggyCoordinator
	rec   *trace.Recorder // nil unless cfg.Trace.Enabled

	// Prefix-cache tier (CACHING.md); both nil unless cfg.Cache is
	// enabled.
	caches []*cache.Cache // one per node
	merge  *mergeCoordinator

	// Overload-control subsystem; all nil unless cfg.Overload asks for
	// the corresponding mechanism.
	adm  *admission.Controller
	over *overload.Controller
	reb  *overload.Rebuilder

	// health is the shared node-suspicion tracker; nil unless failover
	// timeouts are configured (SuspectThreshold > 0).
	health *terminal.NodeHealth

	// Workload scenario (WORKLOADS.md); wl is nil-safe and disabled
	// unless cfg.Workload has phases. phaseStats accumulates the
	// per-phase degradation surface; phaseOpen is the reading at the
	// open segment's start.
	wl         *workload.Schedule
	phaseStats []PhaseMetrics
	phaseOpen  reading

	startedCount int
	measuring    bool
	// open is the reading taken as the measurement window opens.
	open reading

	// respHist observes every measured block round trip, at millisecond
	// base resolution over 20 power-of-two buckets (1 ms .. ~17 minutes).
	respHist *stats.Histogram
}

// NewSimulation validates, normalizes and assembles a simulation.
func NewSimulation(cfg Config) (*Simulation, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulation{
		cfg:      cfg,
		k:        sim.NewKernel(),
		respHist: stats.NewHistogram(0.001, 20),
	}
	// nil when tracing is off; every emit below is a nil-safe no-op then.
	s.rec = trace.NewRecorder(s.k, cfg.Trace)
	root := rng.New(cfg.Seed)

	// Video library: content depends only on LibrarySeed, so every run
	// of a sweep replays the identical catalog (§6.1) and the generated
	// frame tables are shared process-wide.
	s.lib = mpeg.SharedLibrary(cfg.Video, cfg.NumVideos(), cfg.LibrarySeed)
	sizes := make([]int64, cfg.NumVideos())
	for i := range sizes {
		sizes[i] = s.lib.Get(i).TotalBytes()
	}
	if cfg.Striped {
		s.place = layout.NewStriped(sizes, cfg.StripeBytes, cfg.Nodes, cfg.DisksPerNode)
	} else {
		s.place = layout.NewNonStriped(sizes, cfg.StripeBytes, cfg.Nodes, cfg.DisksPerNode,
			root.Derive("placement"))
	}
	if cfg.ReplicateVideos {
		if cfg.MirrorCrossNode {
			s.place.MirrorWith(layout.MirrorCrossNode)
		} else {
			s.place.Mirror()
		}
	}

	s.net = network.New(s.k)
	s.net.SetTrace(s.rec)

	nodeCfg := server.Config{
		PoolPages:   cfg.PoolPagesPerNode(),
		Replacement: cfg.Replacement,
		Sched:       cfg.Sched,
		Prefetch:    cfg.Prefetch,
		DiskParams:  cfg.DiskParams,
	}
	if cfg.ZonedDisks {
		zp := disk.DefaultZonedParams()
		zp.Params = cfg.DiskParams
		nodeCfg.ZonedDisks = &zp
	}
	s.nodes = make([]*server.Node, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		srcs := make([]*rng.Source, cfg.DisksPerNode)
		for d := range srcs {
			srcs[d] = root.DeriveIndexed("disk", n*cfg.DisksPerNode+d)
		}
		s.nodes[n] = server.New(s.k, n, nodeCfg, s.net, s.place, srcs, cfg.StripePlayTime())
		s.nodes[n].SetTrace(s.rec)
		s.nodes[n].Pool().SetTrace(s.rec, n)
		for _, d := range s.nodes[n].Disks() {
			d.SetTrace(s.rec)
		}
	}
	if cfg.Cache.Enabled() {
		s.caches = make([]*cache.Cache, cfg.Nodes)
		perNode := cfg.Cache.BudgetBytes / int64(cfg.Nodes)
		for n := range s.nodes {
			s.caches[n] = cache.New(cfg.Cache, perNode, cfg.NumVideos())
			s.caches[n].SetTrace(s.rec, n)
			s.nodes[n].SetCache(s.caches[n])
		}
	}

	if cfg.Faults.Enabled() {
		// The fault plan is drawn from derived streams and scheduled up
		// front, so a run with a given (seed, fault config) is exactly
		// reproducible and the fault-free streams are untouched.
		horizon := sim.Time(0).Add(cfg.StartWindow).Add(cfg.StartupGrace).Add(cfg.MeasureTime)
		s.applyFaultPlan(faults.NewPlan(cfg.Faults, cfg.Nodes, cfg.DisksPerNode, horizon, root))
		if hook := faults.NewNetModel(cfg.Faults, root); hook != nil {
			s.net.SetHook(hook)
		}
	}

	if cfg.SuspectThreshold > 0 && cfg.RequestTimeout > 0 {
		s.health = terminal.NewNodeHealth(s.k, cfg.Nodes, cfg.SuspectThreshold)
		s.health.SetTrace(s.rec)
	}

	ov := cfg.Overload
	if ov.AdmitLimit > 0 {
		s.adm = admission.NewController(s.k, ov.AdmitLimit)
		s.adm.SetPatience(overload.AdmitPatience)
		s.adm.SetTrace(s.rec)
		if ov.Adaptive || ov.Shed {
			s.over = overload.NewController(s.k, ov, cfg.TotalDisks(), cfg.StripePlayTime())
			s.over.SetLimiter(s.adm)
			s.over.SetTrace(s.rec)
			for g := 0; g < cfg.TotalDisks(); g++ {
				g := g
				s.diskByGlobal(g).SetObserver(func(slack sim.Duration, qlen int) {
					s.over.ObserveDispatch(g, slack, qlen)
				})
			}
		}
	}
	if ov.RebuildRate > 0 {
		s.reb = overload.NewRebuilder(s.k, s.place, ov.RebuildRate,
			func(p *sim.Proc, g int, offset, size int64) bool {
				return s.nodes[g/cfg.DisksPerNode].RebuildIO(p, g%cfg.DisksPerNode, offset, size)
			})
		s.reb.SetTrace(s.rec)
		for _, n := range s.nodes {
			n.SetStaleCheck(s.reb.IsStale)
		}
		for g := 0; g < cfg.TotalDisks(); g++ {
			g := g
			s.diskByGlobal(g).SetRepairHook(func(downtime sim.Duration) {
				s.reb.OnRepair(g, downtime)
			})
		}
	}

	if s.health != nil || s.over != nil {
		// A restarted node clears its suspicion directly (redirected
		// terminals stop sending it requests, so they would never observe
		// the OK that normally clears it) and, with failover on, opens
		// the overload controller's rejoin warm-up window.
		for n, nd := range s.nodes {
			n, nd := n, nd
			nd.SetRestartHook(func(downtime sim.Duration) {
				s.health.NoteRestart(n, downtime)
				if s.over != nil && cfg.Failover {
					s.over.NoteRejoin()
				}
			})
		}
	}

	if cfg.PiggybackDelay > 0 {
		s.piggy = newPiggyCoordinator(s.k, cfg.PiggybackDelay)
	}
	if cfg.Cache.Enabled() {
		s.merge = newMergeCoordinator(
			cfg.Cache.PrefixBlocks,
			cfg.TerminalMemBytes, s.place.BlockSize(),
			s.place.NumBlocks,
			s.place.SizeOfBlock,
			s.cachedPrefix,
			s.forwardMerged,
			s.rec,
		)
	}

	if cfg.Workload.Enabled() {
		// Compiled once from a dedicated derived stream: the churn draws
		// never touch the base streams, so enabling a workload cannot
		// perturb placement, disks or terminal randomness elsewhere.
		s.wl = workload.Compile(cfg.Workload, cfg.NumVideos(), cfg.ZipfZ,
			root.Derive("workload"))
	}

	zipf := rng.NewZipf(cfg.NumVideos(), cfg.ZipfZ)
	tcfg := terminal.Config{
		MemBytes:              cfg.TerminalMemBytes,
		SendLatency:           cpu.InstrTime(cpu.SendInstr),
		RecvLatency:           cpu.InstrTime(cpu.ReceiveInstr),
		Pause:                 cfg.Pause,
		VCR:                   cfg.VCR,
		RandomInitialPosition: cfg.RandomInitialPosition,
		RequestTimeout:        cfg.RequestTimeout,
		MaxRetries:            cfg.MaxRetries,
		RetryBackoff:          cfg.RetryBackoff,
		OnRespTime: func(d sim.Duration) {
			if s.measuring {
				s.respHist.Add(d.Seconds())
			}
		},
	}
	tcfg.RetryJitter = cfg.RetryJitter
	tcfg.Failover = cfg.Failover
	tcfg.Health = s.health // nil is fine: every method is a nil-safe no-op
	if s.adm != nil {
		// Assigned only when non-nil: a typed-nil *Controller in the
		// interface field would pass the != nil checks in the terminal.
		tcfg.Admission = s.adm
	}
	if s.piggy != nil {
		tcfg.Gate = s.piggy
	}
	if s.merge != nil {
		// Assigned only when non-nil (same typed-nil caution as
		// Admission above).
		tcfg.Merger = s.merge
	}
	startSrc := root.Derive("starts")
	s.terms = make([]*terminal.Terminal, cfg.Terminals)
	for i := 0; i < cfg.Terminals; i++ {
		tsrc := root.DeriveIndexed("terminal", i)
		tc := tcfg
		selectVideo := func() int { return zipf.Draw(tsrc) }
		if s.wl.Enabled() {
			// Workload-driven behavior draws from a dedicated per-terminal
			// stream, leaving tsrc's consumption pattern (and with it every
			// workload-free run) untouched.
			wsrc := root.DeriveIndexed("workload", i)
			selectVideo = func() int { return s.wl.SelectVideo(s.k.Now(), wsrc) }
			tc.Think = func() sim.Duration { return s.wl.ThinkTime(s.k.Now(), wsrc) }
			tc.SeekBoost = func() float64 { return s.wl.SeekBoost(s.k.Now()) }
		}
		t := terminal.New(
			s.k, i, tc, s.lib, s.place, tsrc,
			s.sendRequest,
			selectVideo,
			func() bool { return s.measuring },
			s.onTerminalStarted,
		)
		s.terms[i] = t
		t.SetTrace(s.rec)
		t.Start(sim.Duration(startSrc.Float64() * float64(cfg.StartWindow)))
	}
	if s.over != nil {
		streams := make([]overload.Stream, len(s.terms))
		for i, t := range s.terms {
			streams[i] = t
		}
		s.over.SetStreams(streams, ov.ProtectedCount(cfg.Terminals))
	}
	if s.wl.Enabled() {
		// One kernel event per phase entry over the run's whole horizon:
		// it closes the previous accounting segment, snapshots the
		// degradation counters and announces the phase on the trace.
		horizon := cfg.StartWindow + cfg.StartupGrace + cfg.MeasureTime
		for _, b := range s.wl.Boundaries(horizon) {
			b := b
			s.k.At(b.At, func() { s.enterPhase(b) })
		}
	}
	return s, nil
}

// enterPhase runs (in simulation context) at each phase boundary.
func (s *Simulation) enterPhase(b workload.Boundary) {
	cur := s.read()
	s.closePhaseSegment(cur)
	s.phaseStats = append(s.phaseStats, PhaseMetrics{
		Name:  b.Phase.Name,
		Index: b.Index,
		Cycle: b.Cycle,
		Start: cur.at,
		Load:  b.Phase.Load,
	})
	promote := int64(-1)
	if b.Phase.Promote {
		promote = int64(b.Phase.PromoteVideo)
	}
	s.rec.WlPhase(b.Index, b.Cycle, int64(b.Phase.Load*1000), promote)
}

// closePhaseSegment finalizes the open phase segment (if any) with the
// counts accumulated between its opening reading and cur.
func (s *Simulation) closePhaseSegment(cur reading) {
	if n := len(s.phaseStats); n > 0 {
		d := cur.since(s.phaseOpen)
		var term terminal.Stats
		for _, st := range d.terms {
			term = plus(term, st)
		}
		ps := &s.phaseStats[n-1]
		ps.End = cur.at
		ps.Glitches = term.Glitches
		ps.GlitchesUnderrun = term.GlitchesUnderrun
		ps.GlitchesDiskFail = term.GlitchesDiskFail
		ps.GlitchesTimeout = term.GlitchesTimeout
		ps.Sheds = d.over.Sheds
		ps.AdmRejected = d.admRejected
		ps.CacheHits = d.cache.Hits
		ps.CacheMisses = d.cache.Misses
		ps.MoviesStarted = term.MoviesStarted
	}
	s.phaseOpen = cur
}

// sendRequest routes a terminal's block request over the network to the
// owning node.
func (s *Simulation) sendRequest(node int, req *proto.BlockRequest) {
	n := s.nodes[node]
	s.net.Send(proto.RequestHeaderBytes, func() { n.DeliverRequest(req) })
}

// cachedPrefix reports whether blocks [0, upto) of video are all
// resident in their owning nodes' prefix caches — the merge
// coordinator's join feasibility check (the follower's catch-up gap
// must be servable without disk I/O).
func (s *Simulation) cachedPrefix(video, upto int) bool {
	for b := 0; b < upto; b++ {
		if !s.caches[s.place.Locate(video, b).Node].Contains(video, b) {
			return false
		}
	}
	return true
}

// forwardMerged ships one block of a merged stream to a follower. The
// transfer is metered on the interconnect like any reply; no server CPU
// is charged — the read was already served once for the leader, and the
// forward models the multicast fan-out of that same buffer.
func (s *Simulation) forwardMerged(fol *terminal.Terminal, video, block int, size int64) {
	s.net.Send(size+proto.ReplyHeaderBytes, func() { fol.DeliverMerged(video, block, size) })
}

// onTerminalStarted is invoked (in simulation context) the first time
// each terminal begins display; once all have, the measurement window
// opens (§6): the counters are read, and Run reports the window as the
// difference from this reading.
func (s *Simulation) onTerminalStarted() {
	s.startedCount++
	if s.startedCount < s.cfg.Terminals {
		return
	}
	s.measuring = true
	s.open = s.read()
	s.net.ResetStats()
	if s.over != nil {
		// The estimator starts with the measurement window: warm-up
		// slack (every stream priming at once) would read as overload.
		s.over.Start()
	}
}

// Run executes the simulation and collects metrics. The kernel is closed
// before returning; a Simulation runs once.
func (s *Simulation) Run() (Metrics, error) {
	defer s.k.Close()
	m := Metrics{Terminals: s.cfg.Terminals}

	// Phase 1: wait (in chunks) for every terminal to begin viewing.
	startDeadline := sim.Time(0).Add(s.cfg.StartWindow).Add(s.cfg.StartupGrace)
	for !s.measuring && s.k.Now() < startDeadline {
		if err := s.k.Run(s.k.Now().Add(sim.Second)); err != nil {
			return m, err
		}
	}
	if !s.measuring {
		// Startup never completed: hopeless overload. Report a failing,
		// unstarted run rather than simulating forever.
		m.Started = false
		m.Glitches = -1
		return m, nil
	}

	// Phase 2: the measured window.
	if err := s.k.Run(s.open.at.Add(s.cfg.MeasureTime)); err != nil {
		return m, err
	}
	// Sessions still impacted when the window closes count as lost.
	for _, t := range s.terms {
		t.CloseSessionAccounting()
	}
	end := s.read()
	w := end.since(s.open)

	m.Started = true
	m.MeasureStart = s.open.at
	m.MeasureEnd = end.at
	m.Events = s.k.Events()

	if s.wl.Enabled() {
		s.closePhaseSegment(end)
		m.PhaseStats = s.phaseStats
	}

	// Window counts come from w; the fields Metrics documents as
	// lifetime (sessions, failover, merge, cache, admission, overload,
	// rebuild, node health) from end or the subsystem itself.
	var seekLatSum, recoverySum, failoverLatSum sim.Duration
	m.ProtectedTerminals = s.cfg.Overload.ProtectedCount(s.cfg.Terminals)
	for i, st := range w.terms {
		life := end.terms[i]
		m.Glitches += st.Glitches
		if st.Glitches > 0 {
			m.GlitchTerminals++
		}
		if i < m.ProtectedTerminals {
			m.GlitchesProtected += st.Glitches
		}
		m.DegradedBlocks += st.DegradedBlocks
		m.DegradedFrames += st.DegradedFrames
		if i < m.ProtectedTerminals {
			m.DegradedBlocksProtected += st.DegradedBlocks
		}
		m.BlocksServed += st.BlocksReceived
		m.MoviesCompleted += st.MoviesCompleted
		m.Seeks += st.Seeks
		m.SkimBlocks += st.SkimBlocks
		m.StaleDrops += st.StaleDrops
		seekLatSum += st.SeekRePrimeSum
		if st.SeekRePrimeMax > m.SeekRePrimeMax {
			m.SeekRePrimeMax = st.SeekRePrimeMax
		}
		m.GlitchesUnderrun += st.GlitchesUnderrun
		m.GlitchesDiskFail += st.GlitchesDiskFail
		m.GlitchesTimeout += st.GlitchesTimeout
		m.Nacks += st.Nacks
		m.Retries += st.Retries
		m.Timeouts += st.Timeouts
		m.LostBlocks += st.LostBlocks
		m.Recoveries += st.Recoveries
		recoverySum += st.RecoverySum
		if st.RecoveryMax > m.MTTRMax {
			m.MTTRMax = st.RecoveryMax
		}
		m.SessionsImpacted += life.SessionsImpacted
		m.SessionsRecovered += life.SessionsRecovered
		m.SessionsLost += life.SessionsLost
		m.FailoverRedirects += life.FailoverRedirects
		m.FailoverReadmits += life.FailoverReadmits
		failoverLatSum += life.FailoverLatSum
		if life.FailoverLatMax > m.FailoverLatMax {
			m.FailoverLatMax = life.FailoverLatMax
		}
		m.MergeDetaches += life.MergeDetaches
		m.RespTimeSumAdd(st)
	}
	if m.Seeks > 0 {
		m.SeekRePrimeAvg = seekLatSum / sim.Duration(m.Seeks)
	}
	if m.Recoveries > 0 {
		m.MTTRAvg = recoverySum / sim.Duration(m.Recoveries)
	}
	if m.SessionsRecovered > 0 {
		m.FailoverLatAvg = failoverLatSum / sim.Duration(m.SessionsRecovered)
	}
	m.NodeSuspects = s.health.Suspects()
	m.NodeRejoins = s.health.Rejoins()

	if s.adm != nil {
		m.Admitted = s.adm.Admitted
		m.AdmWaited = s.adm.Waited
		m.AdmRejected = s.adm.Rejected
		m.FailoverAdmitted = s.adm.FailoverAdmitted
		m.FailoverRejected = s.adm.FailoverRejected
		if s.adm.Waited > 0 {
			m.AdmWaitAvg = s.adm.WaitSum / sim.Duration(s.adm.Waited)
		}
		m.AdmLimit = s.cfg.Overload.AdmitLimit
		m.AdmLimitMin = s.adm.Limit()
	}
	if s.over != nil {
		m.Sheds = end.over.Sheds
		m.Restores = end.over.Restores
		m.ShedPeak = end.over.ShedPeak
		m.AdmLimitMin = end.over.LimitMin
	}
	if s.reb != nil {
		rs := s.reb.Stats()
		m.RebuildWindows = rs.Windows
		if rs.Windows > 0 {
			m.RebuildWindowAvg = rs.WindowSum / sim.Duration(rs.Windows)
		}
		m.RebuildWindowMax = rs.WindowMax
		m.RebuiltBlocks = rs.Rebuilt
	}

	m.Nodes = w.node
	m.Pool = w.pool
	m.StaleNacks = w.node.StaleNacks
	m.DiskFailStops = w.disk.FailStops
	m.DiskAbandoned = w.disk.Abandoned
	m.DiskRejects = w.disk.Rejects
	m.DiskDownTime = w.disk.DownTime
	m.RebuildIOs = w.disk.RebuildOps
	m.DiskReads = w.disk.Served
	span := end.at.Sub(s.open.at)
	for _, busy := range w.cpuBusy {
		cu := utilization(busy, span)
		m.CPUUtilAvg += cu
		if cu > m.CPUUtilMax {
			m.CPUUtilMax = cu
		}
	}
	m.DiskUtilMin = 2
	for _, busy := range w.diskBusy {
		du := utilization(busy, span)
		m.DiskUtilAvg += du
		if du < m.DiskUtilMin {
			m.DiskUtilMin = du
		}
		if du > m.DiskUtilMax {
			m.DiskUtilMax = du
		}
	}
	m.CacheHits = end.cache.Hits
	m.CacheMisses = end.cache.Misses
	m.CacheInserts = end.cache.Inserts
	m.CacheEvictions = end.cache.Evictions
	if s.merge != nil {
		m.Merges = s.merge.Merges
		m.MergedBlocks = s.merge.MergedBlocks
	}
	m.CPUUtilAvg /= float64(len(s.nodes))
	m.DiskUtilAvg /= float64(s.cfg.TotalDisks())
	if m.DiskUtilMin > 1 {
		m.DiskUtilMin = 0
	}
	m.PeakNetBandwidth = s.net.PeakAggregateBandwidth()
	m.NetTotalBytes = s.net.TotalBytes()
	m.NetDropped = s.net.Dropped()
	m.RespTimeP50 = sim.DurationOfSeconds(s.respHist.Quantile(0.50))
	m.RespTimeP99 = sim.DurationOfSeconds(s.respHist.Quantile(0.99))
	m.Trace = s.rec.Snapshot()
	return m, nil
}

// RespTimeSumAdd folds one terminal's response-time stats into the
// metrics (average finalized lazily).
func (m *Metrics) RespTimeSumAdd(st terminal.Stats) {
	if st.BlocksReceived > 0 {
		// Accumulate a weighted average incrementally.
		total := m.RespTimeAvg*sim.Duration(m.respBlocks) + st.RespTimeSum
		m.respBlocks += st.BlocksReceived
		m.RespTimeAvg = total / sim.Duration(m.respBlocks)
	}
	if st.RespTimeMax > m.RespTimeMax {
		m.RespTimeMax = st.RespTimeMax
	}
}

// Run builds and runs a configuration in one call.
func Run(cfg Config) (Metrics, error) {
	s, err := NewSimulation(cfg)
	if err != nil {
		return Metrics{}, err
	}
	return s.Run()
}

// applyFaultPlan schedules every planned fault as a kernel event.
func (s *Simulation) applyFaultPlan(plan []faults.Event) {
	for _, ev := range plan {
		ev := ev
		switch ev.Kind {
		case faults.KindDiskSlow:
			d := s.diskByGlobal(ev.Index)
			s.k.At(ev.At, func() { d.InjectFault(ev.Factor, ev.Duration) })
		case faults.KindDiskFail:
			d := s.diskByGlobal(ev.Index)
			s.k.At(ev.At, func() { d.Fail(ev.Duration) })
		case faults.KindNodeCrash:
			n := s.nodes[ev.Index]
			s.k.At(ev.At, func() { n.Crash(ev.Duration) })
		}
	}
}

// diskByGlobal resolves a server-wide disk index.
func (s *Simulation) diskByGlobal(g int) *disk.Disk {
	return s.nodes[g/s.cfg.DisksPerNode].Disks()[g%s.cfg.DisksPerNode]
}

// ScheduleDiskFailStop arranges (before Run) for one disk to fail-stop at
// absolute simulated time `at`, repaired after `repair` (<= 0: never).
func (s *Simulation) ScheduleDiskFailStop(diskGlobal int, at sim.Time, repair sim.Duration) {
	d := s.diskByGlobal(diskGlobal)
	s.k.At(at, func() { d.Fail(repair) })
}

// ScheduleNodeCrash arranges (before Run) for one node to crash at
// absolute simulated time `at`, restarting after `restart` (<= 0: never).
func (s *Simulation) ScheduleNodeCrash(node int, at sim.Time, restart sim.Duration) {
	n := s.nodes[node]
	s.k.At(at, func() { n.Crash(restart) })
}

// ScheduleDiskFault arranges (before Run) for one disk to degrade by
// `factor` for `duration`, starting at absolute simulated time `at`.
// Failure-injection tests use it to verify that the closed-loop system
// glitches under degradation and restabilizes afterwards.
func (s *Simulation) ScheduleDiskFault(diskGlobal int, at sim.Time, factor float64, duration sim.Duration) {
	node := diskGlobal / s.cfg.DisksPerNode
	local := diskGlobal % s.cfg.DisksPerNode
	d := s.nodes[node].Disks()[local]
	s.k.At(at, func() { d.InjectFault(factor, duration) })
}

// Terminals exposes the simulation's terminals so invariant tests (the
// chaos soak) can audit per-terminal state after a run.
func (s *Simulation) Terminals() []*terminal.Terminal { return s.terms }

// Admission exposes the admission controller (nil when ungated), for the
// same audits: slot conservation against the terminals holding slots.
func (s *Simulation) Admission() *admission.Controller { return s.adm }

// PiggybackStats reports (batches, riders) after a piggybacked run.
func (s *Simulation) PiggybackStats() (batches, riders int64) {
	if s.piggy == nil {
		return 0, 0
	}
	return s.piggy.Batches, s.piggy.Riders
}
