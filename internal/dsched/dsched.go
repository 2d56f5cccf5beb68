// Package dsched implements the disk scheduling algorithms compared in
// the SPIFFI paper (§5.2.2): elevator, FCFS, round-robin, the group
// sweeping scheme (GSS) of Yu et al., and the paper's real-time
// deadline-driven priority algorithm, plus SSTF and C-SCAN as extra
// classic baselines.
//
// A Queue holds pending requests for one disk. The algorithms differ only
// in which pending request the disk serves next, so each is a pick rule
// over the one pending slice. The disk's service process calls Next after
// every completed access, so algorithms that recompute priorities "after
// each disk access" (the real-time algorithm) do so naturally.
package dsched

import (
	"math"
	"sort"

	"spiffi/internal/sim"
)

// Request is one pending disk access.
type Request struct {
	Offset   int64    // byte offset on the disk
	Size     int64    // transfer length in bytes
	Cylinder int      // target cylinder (first cylinder of the transfer)
	Deadline sim.Time // absolute completion deadline (real-time scheduling)
	Terminal int      // issuing terminal (round-robin and GSS fairness key)
	Prefetch bool     // background prefetch rather than a demand read
	Arrival  sim.Time // when the request entered the queue
	Seq      uint64   // global arrival sequence, the deterministic tiebreak

	// Failed marks a request completed with an error rather than data:
	// the disk fail-stopped while it was queued or in service, or it was
	// submitted to an already-failed disk.
	Failed bool

	// Rebuild marks a background mirror-reconstruction transfer
	// (internal/overload). Rebuild requests ride the non-real-time
	// queue class like prefetches but are counted separately.
	Rebuild bool

	// Data carries the issuer's completion context opaquely.
	Data any
}

// Queue is one disk's pending requests under one scheduling algorithm.
type Queue struct {
	cfg  Config
	pick func(q *Queue, now sim.Time, headCyl int) int // index into reqs; reqs non-empty
	reqs []*Request

	dir    int // sweep direction of the elevator order (elevator, GSS, real-time)
	cursor int // round-robin: terminal id after which the scan resumes

	// GSS: the group whose batch is being swept, and the batch itself —
	// pending requests already selected for this sweep (they stay in reqs).
	group int
	batch []*Request

	scratch []*Request // real-time: the most urgent class, reused per Next
}

// Add inserts a pending request.
func (q *Queue) Add(r *Request) { q.reqs = append(q.reqs, r) }

// Len reports the number of pending requests.
func (q *Queue) Len() int { return len(q.reqs) }

// Next removes and returns the request to service now, given the current
// time and disk head position, or nil if none is pending.
func (q *Queue) Next(now sim.Time, headCyl int) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	i := q.pick(q, now, headCyl)
	r := q.reqs[i]
	q.reqs = removeAt(q.reqs, i)
	return r
}

// Drain removes and returns every pending request in arrival (Seq) order,
// emptying the queue. A fail-stopped disk drains its queue and completes
// the abandoned requests with Failed set so issuers learn their fate
// instead of waiting forever; arrival order is the only ordering that
// still means anything once the disk is gone.
func (q *Queue) Drain() []*Request {
	out := q.reqs
	q.reqs, q.batch = nil, nil
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// pickElevator is the classic SCAN algorithm (§5.2.2): the head sweeps
// across cylinders servicing requests in passing, reversing at the last
// pending request in the travel direction. It nearly minimizes seeks
// while remaining fair.
func (q *Queue) pickElevator(_ sim.Time, headCyl int) int {
	return q.elevator(q.reqs, headCyl)
}

// pickFCFS services requests strictly in arrival order. It is the
// baseline discipline of the Haritsa/Karthikeyan comparison referenced in
// §3 and is useful for calibration tests.
func (q *Queue) pickFCFS(sim.Time, int) int { return 0 }

// pickRoundRobin services terminals in strict cyclic order, taking the
// oldest pending request of each terminal in turn. The paper notes this
// is the GSS limit where every terminal forms its own group, and shows it
// always loses to seek-optimizing algorithms (Figure 10).
func (q *Queue) pickRoundRobin(sim.Time, int) int {
	// Wrap one past the largest terminal id in play (queue or cursor), so
	// every id orders cyclically after the cursor whatever the id range —
	// a fixed constant would silently mis-order ids at or beyond it.
	wrap := q.cursor
	for _, r := range q.reqs {
		if r.Terminal > wrap {
			wrap = r.Terminal
		}
	}
	wrap++
	// Choose the terminal with the smallest cyclic distance from the
	// cursor, then that terminal's oldest request. best is guarded
	// explicitly: no key value doubles as an "unset" sentinel.
	best := -1
	bestKey := 0
	for i, r := range q.reqs {
		key := r.Terminal - q.cursor - 1
		if key < 0 {
			key += wrap
		}
		if best == -1 || key < bestKey || (key == bestKey && r.Seq < q.reqs[best].Seq) {
			bestKey = key
			best = i
		}
	}
	q.cursor = q.reqs[best].Terminal
	return best
}

// pickSSTF (shortest seek time first) always services the pending
// request nearest the head. It minimizes per-access seek time more
// greedily than the elevator but is unfair: requests at the platter edges
// can starve under load. It is not in the paper's comparison; it is an
// additional classic baseline for ablation studies.
func (q *Queue) pickSSTF(_ sim.Time, headCyl int) int {
	best := 0
	for i, r := range q.reqs {
		b := q.reqs[best]
		di, db := absInt(r.Cylinder-headCyl), absInt(b.Cylinder-headCyl)
		if di < db || (di == db && r.Seq < b.Seq) {
			best = i
		}
	}
	return best
}

// pickCSCAN is the circular elevator: the head sweeps in one direction
// only, jumping back to the lowest pending cylinder when nothing lies
// ahead. Compared with the plain elevator it trades a little seek
// efficiency for lower service-time variance. Also an ablation baseline.
func (q *Queue) pickCSCAN(_ sim.Time, headCyl int) int {
	if i := lowestFrom(q.reqs, headCyl); i >= 0 {
		return i
	}
	return lowestFrom(q.reqs, math.MinInt)
}

// lowestFrom returns the index of the lowest-cylinder request at or above
// cylinder min (ties to the earlier arrival), or -1 if there is none.
func lowestFrom(reqs []*Request, min int) int {
	best := -1
	for i, r := range reqs {
		if r.Cylinder < min {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := reqs[best]
		if r.Cylinder < b.Cylinder || (r.Cylinder == b.Cylinder && r.Seq < b.Seq) {
			best = i
		}
	}
	return best
}

// pickGSS is the group sweeping scheme of Yu et al. [Yu92] as described
// in §5.2.2: terminals are statically assigned to one of a fixed set of
// groups; groups are processed in round-robin order; to process a group,
// up to one pending request from each terminal in that group is selected,
// and the batch is serviced in elevator order.
//
// With one group GSS is nearly the elevator algorithm (but each terminal
// is serviced at most once per sweep); with as many groups as terminals
// it degenerates to round-robin.
func (q *Queue) pickGSS(_ sim.Time, headCyl int) int {
	if len(q.batch) == 0 {
		q.formBatch()
	}
	i := q.elevator(q.batch, headCyl)
	r := q.batch[i]
	q.batch = removeAt(q.batch, i)
	return indexOf(q.reqs, r)
}

// formBatch advances through groups (starting with the current one) until
// it finds a group with pending work, then selects up to one request per
// terminal of that group — the oldest per terminal — into the batch.
// Every request belongs to some group, so a non-empty queue always yields
// a non-empty batch.
func (q *Queue) formBatch() {
	groups := q.cfg.Groups
	for scanned := 0; scanned < groups; scanned++ {
		grp := (q.group + scanned) % groups
	next:
		for _, r := range q.reqs {
			if q.groupOf(r.Terminal) != grp {
				continue
			}
			for bi, b := range q.batch {
				if b.Terminal == r.Terminal {
					// Keep only the oldest request per terminal.
					if r.Seq < b.Seq {
						q.batch[bi] = r
					}
					continue next
				}
			}
			q.batch = append(q.batch, r)
		}
		if len(q.batch) > 0 {
			q.group = (grp + 1) % groups
			return
		}
	}
}

// groupOf maps a terminal to its GSS group.
func (q *Queue) groupOf(terminal int) int {
	if terminal < 0 {
		return 0 // requests without a terminal ride with group 0
	}
	return terminal % q.cfg.Groups
}

// pickRealTime is the paper's real-time disk scheduling algorithm
// (§5.2.2, Figures 5 and 6): every request carries a completion deadline;
// the remaining slack maps the request into one of a fixed set of
// priority classes (Config.ClassOf); the most urgent class with pending
// requests is serviced in elevator order. Priorities are recomputed from
// the current time at every selection, so a request drifts into higher
// classes as its deadline approaches.
func (q *Queue) pickRealTime(now sim.Time, headCyl int) int {
	best := q.cfg.Classes
	for _, r := range q.reqs {
		if c := q.cfg.ClassOf(now, r.Deadline); c < best {
			best = c
			if best == 0 {
				break
			}
		}
	}
	q.scratch = q.scratch[:0]
	for _, r := range q.reqs {
		if q.cfg.ClassOf(now, r.Deadline) == best {
			q.scratch = append(q.scratch, r)
		}
	}
	return indexOf(q.reqs, q.scratch[q.elevator(q.scratch, headCyl)])
}

// elevator chooses the SCAN-order request from reqs and returns its
// index: the nearest request at or beyond the head in the sweep
// direction; if none lie that way the sweep reverses. reqs must be
// non-empty. Ties on cylinder break by lower Seq (arrival order), keeping
// runs deterministic.
func (q *Queue) elevator(reqs []*Request, headCyl int) int {
	pick := func(d int) int {
		idx := -1
		for i, r := range reqs {
			if d > 0 && r.Cylinder < headCyl {
				continue
			}
			if d < 0 && r.Cylinder > headCyl {
				continue
			}
			if idx == -1 {
				idx = i
				continue
			}
			b := reqs[idx]
			di := absInt(r.Cylinder - headCyl)
			db := absInt(b.Cylinder - headCyl)
			if di < db || (di == db && r.Seq < b.Seq) {
				idx = i
			}
		}
		return idx
	}
	if idx := pick(q.dir); idx >= 0 {
		return idx
	}
	q.dir = -q.dir
	return pick(q.dir)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// indexOf returns the index of r in reqs; r must be present.
func indexOf(reqs []*Request, r *Request) int {
	for i, o := range reqs {
		if o == r {
			return i
		}
	}
	panic("dsched: picked request not pending")
}

// removeAt deletes index i from the slice preserving order of the rest.
// Order preservation matters: FIFO tie-breaks rely on stable ordering.
func removeAt(reqs []*Request, i int) []*Request {
	copy(reqs[i:], reqs[i+1:])
	reqs[len(reqs)-1] = nil
	return reqs[:len(reqs)-1]
}
