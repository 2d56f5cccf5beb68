package dsched

import (
	"fmt"

	"spiffi/internal/sim"
)

// Kind selects a disk scheduling algorithm.
type Kind string

// The scheduling algorithms compared in the paper's Figure 10, plus
// FCFS, SSTF and C-SCAN as extra classic baselines.
const (
	KindElevator   Kind = "elevator"
	KindFCFS       Kind = "fcfs"
	KindRoundRobin Kind = "round-robin"
	KindGSS        Kind = "gss"
	KindRealTime   Kind = "real-time"
	KindSSTF       Kind = "sstf"
	KindCSCAN      Kind = "cscan"
)

// Config is a declarative scheduler specification; one Queue is built
// per disk.
type Config struct {
	Kind Kind

	// Groups applies to KindGSS (paper: 1 group in Figure 10).
	Groups int

	// Classes and Spacing apply to KindRealTime (paper's tuned values:
	// 3 classes, 4-second spacing).
	Classes int
	Spacing sim.Duration
}

// String renders the configuration the way the paper labels its curves.
func (c Config) String() string {
	switch c.Kind {
	case KindGSS:
		return fmt.Sprintf("gss(%d)", c.Groups)
	case KindRealTime:
		return fmt.Sprintf("real-time(%d,%gs)", c.Classes, c.Spacing.Seconds())
	default:
		return string(c.Kind)
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.Kind {
	case KindElevator, KindFCFS, KindRoundRobin, KindSSTF, KindCSCAN:
		return nil
	case KindGSS:
		if c.Groups < 1 {
			return fmt.Errorf("dsched: gss needs Groups >= 1, got %d", c.Groups)
		}
		return nil
	case KindRealTime:
		if c.Classes < 1 {
			return fmt.Errorf("dsched: real-time needs Classes >= 1, got %d", c.Classes)
		}
		if c.Spacing <= 0 {
			return fmt.Errorf("dsched: real-time needs Spacing > 0, got %v", c.Spacing)
		}
		return nil
	default:
		return fmt.Errorf("dsched: unknown scheduler kind %q", c.Kind)
	}
}

// New builds the pending-request queue for one disk, fixing its pick
// rule once.
func (c Config) New() *Queue {
	if err := c.Validate(); err != nil {
		panic(err)
	}
	q := &Queue{cfg: c, dir: 1, cursor: -1}
	switch c.Kind {
	case KindElevator:
		q.pick = (*Queue).pickElevator
	case KindFCFS:
		q.pick = (*Queue).pickFCFS
	case KindRoundRobin:
		q.pick = (*Queue).pickRoundRobin
	case KindSSTF:
		q.pick = (*Queue).pickSSTF
	case KindCSCAN:
		q.pick = (*Queue).pickCSCAN
	case KindGSS:
		q.pick = (*Queue).pickGSS
	default:
		q.pick = (*Queue).pickRealTime
	}
	return q
}

// ClassOf returns the real-time priority class (0 = most urgent) a
// request with the given deadline occupies at time now. A request with
// slack below Spacing is in the highest class; one with slack of at least
// (Classes-1)*Spacing is in the lowest. Prefetch requests carry estimated
// deadlines (real-time prefetching, §5.2.3) or, if none was estimated, an
// infinitely late deadline that pins them to the lowest class.
func (c Config) ClassOf(now, deadline sim.Time) int {
	slack := deadline.Sub(now)
	if slack < 0 {
		return 0
	}
	k := int(slack / c.Spacing)
	if k >= c.Classes {
		k = c.Classes - 1
	}
	return k
}

// IsRealTime reports whether the configuration assigns deadlines meaning —
// prefetching algorithms that need deadlines (real-time and delayed
// prefetching, §5.2.3) require a real-time scheduler.
func (c Config) IsRealTime() bool { return c.Kind == KindRealTime }
