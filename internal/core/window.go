package core

import (
	"reflect"

	"spiffi/internal/bufferpool"
	"spiffi/internal/cache"
	"spiffi/internal/disk"
	"spiffi/internal/overload"
	"spiffi/internal/server"
	"spiffi/internal/sim"
	"spiffi/internal/terminal"
)

// reading is one cumulative reading of every component's counters. The
// components keep lifetime counters only; the measurement window (§6)
// and each workload phase segment are the difference of two readings,
// so core is the one place that knows where either begins.
type reading struct {
	at          sim.Time
	terms       []terminal.Stats // per terminal
	node        server.Stats     // summed over nodes
	pool        bufferpool.Stats // summed over nodes
	disk        disk.Stats       // summed over disks
	cpuBusy     []sim.Duration   // per node
	diskBusy    []sim.Duration   // per disk, by global index
	cache       cache.Stats      // summed over node caches
	over        overload.Stats
	admRejected int64
}

// read takes a reading of the simulation's counters now.
func (s *Simulation) read() reading {
	r := reading{
		at:       s.k.Now(),
		terms:    make([]terminal.Stats, len(s.terms)),
		cpuBusy:  make([]sim.Duration, len(s.nodes)),
		diskBusy: make([]sim.Duration, 0, s.cfg.TotalDisks()),
	}
	for i, t := range s.terms {
		r.terms[i] = t.Stats()
	}
	for i, n := range s.nodes {
		r.node = plus(r.node, n.Stats())
		r.pool = plus(r.pool, n.Pool().Stats())
		r.cpuBusy[i] = n.CPU().BusyTime()
		for _, d := range n.Disks() {
			r.disk = plus(r.disk, d.Stats())
			r.diskBusy = append(r.diskBusy, d.BusyTime())
		}
	}
	for _, c := range s.caches {
		r.cache = plus(r.cache, c.Stats())
	}
	if s.over != nil {
		r.over = s.over.Stats()
	}
	if s.adm != nil {
		r.admRejected = s.adm.Rejected
	}
	return r
}

// since returns the counts accumulated between prev and r. The result
// keeps r's instant.
func (r reading) since(prev reading) reading {
	d := r
	d.terms = make([]terminal.Stats, len(r.terms))
	for i := range r.terms {
		d.terms[i] = minus(r.terms[i], prev.terms[i])
	}
	d.node = minus(r.node, prev.node)
	d.pool = minus(r.pool, prev.pool)
	d.disk = minus(r.disk, prev.disk)
	d.cpuBusy = minusEach(r.cpuBusy, prev.cpuBusy)
	d.diskBusy = minusEach(r.diskBusy, prev.diskBusy)
	d.cache = minus(r.cache, prev.cache)
	d.over = minus(r.over, prev.over)
	d.admRejected = r.admRejected - prev.admRejected
	return d
}

func minusEach(a, b []sim.Duration) []sim.Duration {
	d := make([]sim.Duration, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return d
}

// utilization is the busy fraction of a window of length span.
func utilization(busy, span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(busy) / float64(span)
}

var (
	int64Type    = reflect.TypeOf(int64(0))
	durationType = reflect.TypeOf(sim.Duration(0))
)

func plus[T any](a, b T) T  { return combine(a, b, 1) }
func minus[T any](a, b T) T { return combine(a, b, -1) }

// combine returns a with sign·b added to each of its int64 and
// sim.Duration fields. Every other field (an int peak or floor) keeps
// a's value: it is not a counter, so it has no sum or difference. T is a
// component's Stats struct, whose fields are all exported. Readings are
// taken only at the window's ends and at phase boundaries, so the
// reflection stays off the hot path.
func combine[T any](a, b T, sign int64) T {
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if f := va.Field(i); f.Type() == int64Type || f.Type() == durationType {
			f.SetInt(f.Int() + sign*vb.Field(i).Int())
		}
	}
	return a
}
