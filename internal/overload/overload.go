// Package overload implements the adaptive overload-control and
// recovery subsystem: a measurement-based capacity estimator driving
// the admission controller's limit, graceful load shedding of
// low-priority streams, and rate-limited mirror rebuild after disk
// repair (rebuild.go).
//
// The estimator follows the paper's §4 argument that sustainable load
// must be measured, not precomputed: per-disk deadline slack (how much
// margin each demand read has left when it reaches the disk arm) and
// queue depth are smoothed with an EWMA; when the worst disk's slack
// collapses below one stripe play time the system is treated as over
// capacity — the admission limit is stepped down and the
// lowest-priority active streams are downshifted to degraded mode —
// and when slack recovers above two stripe play times the limit is
// raised and shed streams are restored.
//
// The controller also owns the rejoin warm-up (NoteRejoin): after a
// crashed node restarts, its disks return with cold buffer pools and a
// backlog of redirected sessions, so the measured slack briefly looks
// healthy while the rejoining node is still fragile. For rejoinWarmup
// the estimator suppresses limit *raises* — lowers and sheds still
// apply, and shed-stream restores are unaffected (they return capacity
// to streams already admitted) — letting the node refill its pool
// before new load is admitted against it.
//
// Everything here is deterministic: the controller consumes no
// randomness, and a zero Config arms no timers and changes nothing, so
// runs without overload control reproduce earlier builds bit for bit.
package overload

import (
	"fmt"

	"spiffi/internal/sim"
	"spiffi/internal/trace"
)

// Config configures the overload-control subsystem. The zero value
// disables everything: no admission gate, no controller ticks, no
// rebuild, no RNG draws.
type Config struct {
	// AdmitLimit caps concurrently playing streams (0 = admission
	// control off). With Adaptive set this is the starting and maximum
	// limit; the estimator moves the live limit below it under
	// pressure.
	AdmitLimit int
	// Adaptive lets the capacity estimator adjust the admission limit
	// at runtime.
	Adaptive bool

	// Shed enables graceful load shedding: under pressure the
	// controller downshifts the highest-numbered (lowest-priority)
	// active streams to degraded mode, restoring them when slack
	// recovers.
	Shed bool
	// ProtectedFraction is the fraction of terminals (lowest ids
	// first) that are never shed and whose glitches are reported as
	// Metrics.GlitchesProtected. Pure accounting plus a shed floor:
	// setting it alone arms nothing. Defaults to 0.5 when Shed is set.
	ProtectedFraction float64

	// QueueHigh is the smoothed disk queue depth treated as pressure
	// even when slack still looks healthy (default 16).
	QueueHigh int

	// HoldAfterCut suppresses limit raises for this long after each
	// limit cut (0 = none). Under a step-function load increase the
	// EWMA briefly reads healthy between cuts; without a hold the limit
	// saws up and down while the backlog drains. Shed-stream restores
	// are unaffected, as with the rejoin warm-up.
	HoldAfterCut sim.Duration
	// RaiseStreak requires this many consecutive recovery-qualified
	// ticks before the limit is raised (0 or 1 = raise on the first,
	// the historical behavior). Any pressure or neutral tick resets
	// the streak.
	RaiseStreak int

	// RebuildRate paces background mirror reconstruction after a disk
	// repair, in bytes of re-copied data per second (0 = rebuild off;
	// repaired disks then rejoin with their contents intact, as in
	// builds predating this package). Requires replicated videos.
	RebuildRate int64
}

// The estimator's fixed tuning. The pressure and recovery thresholds
// on the worst per-disk slack EWMA are 1x and 2x the stripe play time
// (NewController's ref): a demand read whose deadline is less than one
// block's play time away is about to miss, and steady-state dispatch
// slack is bounded by how far ahead the terminal buffer lets streams
// request (a few stripe play times), so a recovery threshold much above
// 2x is never reached even by a healthy system.
const (
	// AdmitPatience bounds how long a stream waits in the admission
	// queue before it is rejected with a NACK.
	AdmitPatience = 10 * sim.Second

	rejoinWarmup           = 30 * sim.Second // raise hold after a node rejoin
	decisionPeriod         = sim.Second      // estimator tick
	ewmaWeight     float64 = 0.1             // EWMA smoothing weight
	limitFloor     float64 = 0.25            // adaptive-limit floor, as a fraction of AdmitLimit
)

// Enabled reports whether any overload mechanism is active.
func (c Config) Enabled() bool { return c.AdmitLimit > 0 || c.RebuildRate > 0 }

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.Shed && c.ProtectedFraction == 0 {
		c.ProtectedFraction = 0.5
	}
	if (c.Adaptive || c.Shed) && c.QueueHigh == 0 {
		c.QueueHigh = 16
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.AdmitLimit < 0 || c.RebuildRate < 0 {
		return fmt.Errorf("overload: negative limit or rebuild rate")
	}
	if (c.Adaptive || c.Shed) && c.AdmitLimit == 0 {
		return fmt.Errorf("overload: adaptive/shed control needs AdmitLimit > 0")
	}
	if c.ProtectedFraction < 0 || c.ProtectedFraction > 1 {
		return fmt.Errorf("overload: ProtectedFraction %v outside [0,1]", c.ProtectedFraction)
	}
	if c.HoldAfterCut < 0 {
		return fmt.Errorf("overload: negative HoldAfterCut")
	}
	if c.RaiseStreak < 0 {
		return fmt.Errorf("overload: RaiseStreak %d negative", c.RaiseStreak)
	}
	return nil
}

// ProtectedCount returns how many terminals (ids 0..n-1) are
// protected: never shed, and counted in GlitchesProtected. With no
// fraction configured every terminal is protected.
func (c Config) ProtectedCount(terminals int) int {
	if c.ProtectedFraction <= 0 {
		return terminals
	}
	p := int(c.ProtectedFraction * float64(terminals))
	if p < 1 {
		p = 1
	}
	if p > terminals {
		p = terminals
	}
	return p
}

// Limiter is the admission-controller surface the estimator drives
// (implemented by admission.Controller).
type Limiter interface {
	SetLimit(n int)
	Limit() int
	Active() int
}

// Stream is a shedable video stream (implemented by
// terminal.Terminal). SetDegraded(true) halves its block rate.
type Stream interface {
	SetDegraded(on bool)
}

// Stats aggregates the controller's decisions for core.Metrics.
type Stats struct {
	Sheds    int64 // individual stream downshifts
	Restores int64 // individual stream upshifts
	LimitMin int   // lowest admission limit reached
	ShedPeak int   // most streams degraded at once
}

// Controller is the EWMA capacity estimator. It observes every demand
// dispatch on every disk (ObserveDispatch, wired through disk
// observers), and once per decisionPeriod compares the worst smoothed
// slack against the thresholds to move the admission limit and the
// shed set. Streams are shed from the highest id down; ids below the
// protected count are never shed.
type Controller struct {
	k   *sim.Kernel
	cfg Config
	rec *trace.Recorder

	lim       Limiter
	streams   []Stream
	protected int

	ref sim.Duration // stripe play time: pressure below 1x, recovery above 2x

	slack []sim.Duration // per-disk smoothed deadline slack
	seen  []bool         // disk dispatched since last tick
	init  []bool         // slack EWMA has a first sample
	qlen  float64        // smoothed queue depth across dispatches

	degraded int // streams currently shed, from the top of the id range
	running  bool
	stats    Stats

	// Step-response hysteresis (HoldAfterCut / RaiseStreak): raises are
	// held until holdUntil after a cut, and healthy counts consecutive
	// recovery-qualified ticks.
	holdUntil sim.Time
	healthy   int

	// Rejoin warm-up: after a crashed node restarts, raising the
	// admission limit is suppressed until warmupUntil so the rejoining
	// node (serving cold caches and a stale-mirror rebuild) is not
	// instantly re-saturated by a wave of new admissions. Shed-stream
	// restores are unaffected — they return capacity to streams already
	// admitted.
	warmupUntil sim.Time
}

// NewController builds an estimator over disks total disks. ref is the
// stripe play time, the slack unit of the pressure and recovery
// thresholds. The limiter and stream set are wired separately
// (SetLimiter, SetStreams); Start arms the tick chain.
func NewController(k *sim.Kernel, cfg Config, disks int, ref sim.Duration) *Controller {
	return &Controller{
		k:     k,
		cfg:   cfg,
		ref:   ref,
		slack: make([]sim.Duration, disks),
		seen:  make([]bool, disks),
		init:  make([]bool, disks),
		stats: Stats{LimitMin: cfg.AdmitLimit},
	}
}

// SetTrace wires the event recorder (nil is fine).
func (c *Controller) SetTrace(rec *trace.Recorder) { c.rec = rec }

// SetLimiter wires the admission controller the estimator drives.
func (c *Controller) SetLimiter(lim Limiter) { c.lim = lim }

// SetStreams wires the shedable stream set in priority order (index =
// terminal id; higher ids shed first). The first protected streams
// are never shed.
func (c *Controller) SetStreams(streams []Stream, protected int) {
	c.streams = streams
	c.protected = protected
}

// Start arms the estimator's tick chain. Core calls it when the
// measurement window opens: during warm-up every stream is priming
// with near-zero slack, which would read as overload. Starting at
// measure open also resets the EWMAs so the estimate reflects steady
// state only. Idempotent.
func (c *Controller) Start() {
	if c.running || !(c.cfg.Adaptive || c.cfg.Shed) {
		return
	}
	c.running = true
	for i := range c.init {
		c.init[i] = false
		c.seen[i] = false
	}
	c.qlen = 0
	c.k.After(decisionPeriod, c.tick)
}

// NoteRejoin records a node restart (wired from the server's restart
// hook when failover is on), opening the rejoinWarmup window during
// which relax() will not raise the admission limit.
func (c *Controller) NoteRejoin() {
	if until := c.k.Now().Add(rejoinWarmup); until > c.warmupUntil {
		c.warmupUntil = until
	}
}

// ObserveDispatch feeds one demand-read dispatch: the deadline slack
// remaining when the request reached the disk arm, and the queue
// depth behind it. Called from the disk layer; prefetches and
// infinite-deadline requests are filtered out there.
func (c *Controller) ObserveDispatch(disk int, slack sim.Duration, qlen int) {
	a := ewmaWeight
	if !c.init[disk] {
		c.slack[disk] = slack
		c.init[disk] = true
	} else {
		c.slack[disk] = sim.Duration((1-a)*float64(c.slack[disk]) + a*float64(slack))
	}
	c.seen[disk] = true
	c.qlen = (1-a)*c.qlen + a*float64(qlen)
}

// Stats returns the decision counters.
func (c *Controller) Stats() Stats { return c.stats }

// Degraded returns how many streams are currently shed.
func (c *Controller) Degraded() int { return c.degraded }

func (c *Controller) tick() {
	worst := sim.Duration(1<<63 - 1)
	any := false
	for i := range c.slack {
		if !c.seen[i] {
			continue // idle or dead disks carry no capacity signal
		}
		c.seen[i] = false
		any = true
		if c.slack[i] < worst {
			worst = c.slack[i]
		}
	}
	if any {
		switch {
		case worst < c.ref || c.qlen > float64(c.cfg.QueueHigh):
			c.healthy = 0
			c.pressure(worst)
		case worst > 2*c.ref && c.qlen < float64(c.cfg.QueueHigh)/2:
			c.healthy++
			c.relax(worst)
		default:
			c.healthy = 0
		}
	} else {
		c.healthy = 0
	}
	c.k.After(decisionPeriod, c.tick)
}

// pressure steps the admission limit down and sheds more streams.
func (c *Controller) pressure(worst sim.Duration) {
	if c.cfg.Adaptive && c.lim != nil {
		cur := c.lim.Limit()
		floor := int(float64(c.cfg.AdmitLimit) * limitFloor)
		if floor < 1 {
			floor = 1
		}
		next := cur - max(1, cur/8)
		if next < floor {
			next = floor
		}
		if next < cur {
			c.lim.SetLimit(next)
			c.rec.OverLimit(next, cur, worst)
			if next < c.stats.LimitMin {
				c.stats.LimitMin = next
			}
			if c.cfg.HoldAfterCut > 0 {
				c.holdUntil = c.k.Now().Add(c.cfg.HoldAfterCut)
			}
		}
	}
	if c.cfg.Shed {
		sheddable := len(c.streams) - c.protected
		step := max(1, sheddable/8)
		for i := 0; i < step && c.degraded < sheddable; i++ {
			id := len(c.streams) - 1 - c.degraded
			c.streams[id].SetDegraded(true)
			c.degraded++
			c.stats.Sheds++
			c.rec.OverShed(id, c.degraded, c.limit(), worst)
			if c.degraded > c.stats.ShedPeak {
				c.stats.ShedPeak = c.degraded
			}
		}
	}
}

// relax restores shed streams and steps the limit back up.
func (c *Controller) relax(worst sim.Duration) {
	if c.cfg.Shed {
		sheddable := len(c.streams) - c.protected
		step := max(1, sheddable/8)
		for i := 0; i < step && c.degraded > 0; i++ {
			c.degraded--
			id := len(c.streams) - 1 - c.degraded
			c.streams[id].SetDegraded(false)
			c.stats.Restores++
			c.rec.OverRestore(id, c.degraded, c.limit(), worst)
		}
	}
	if c.cfg.Adaptive && c.lim != nil {
		if c.k.Now() < c.warmupUntil {
			return // rejoin warm-up: hold the limit down
		}
		if c.k.Now() < c.holdUntil || c.healthy < c.cfg.RaiseStreak {
			return // post-cut hold / recovery streak not yet earned
		}
		cur := c.lim.Limit()
		next := cur + max(1, c.cfg.AdmitLimit/16)
		if next > c.cfg.AdmitLimit {
			next = c.cfg.AdmitLimit
		}
		if next > cur {
			c.lim.SetLimit(next)
			c.rec.OverLimit(next, cur, worst)
		}
	}
}

func (c *Controller) limit() int {
	if c.lim == nil {
		return 0
	}
	return c.lim.Limit()
}
