package sim

import "fmt"

// Proc is a simulation process: a goroutine that runs user logic and
// yields to the kernel whenever it waits for simulated time to pass or
// for a condition to be signalled. At most one process runs at a time.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	kill   bool

	// wakePending is set by WakeAt and cleared by dispatch: a second
	// wake while one is pending would resume the process out of turn.
	wakePending bool
}

// Spawn creates a process executing fn and schedules it to start at the
// current simulated time (after already-scheduled events at this time).
// The name appears in diagnostics only.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt is Spawn with a delayed start time.
func (k *Kernel) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	k.live[p] = struct{}{}
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil && r != errKilled {
				k.setPanic(r)
			}
			delete(k.live, p)
			k.yield <- struct{}{}
		}()
		if p.kill {
			panic(errKilled)
		}
		fn(p)
	}()
	k.At(t, func() { k.dispatch(p) })
	return p
}

// dispatch transfers control to p and waits until p blocks or terminates.
// It runs in kernel context (from an event callback).
func (k *Kernel) dispatch(p *Proc) {
	p.wakePending = false
	p.resume <- struct{}{}
	<-k.yield
}

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Block parks the process until some other party calls Kernel.Wake(p).
// It is the building block for condition-style synchronization: the
// caller must have registered p on some waiter list first.
func (p *Proc) Block() {
	p.k.yield <- struct{}{}
	<-p.resume
	if p.kill {
		panic(errKilled)
	}
}

// Wake schedules p to resume at the current simulated time. It may be
// called from kernel context or from another process. Waking a process
// that is not blocked in Block (or a timed wait) corrupts the handoff
// protocol, so primitives must track waiter state carefully.
func (k *Kernel) Wake(p *Proc) { k.WakeAt(k.now, p) }

// WakeAt schedules p to resume at absolute time t. It panics, naming
// the process, if a wake of p is already pending.
func (k *Kernel) WakeAt(t Time, p *Proc) {
	if p.wakePending {
		panic(fmt.Sprintf("sim: process %q woken while a wake is already pending", p.name))
	}
	p.wakePending = true
	k.At(t, func() { k.dispatch(p) })
}

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.k.WakeAt(p.k.now.Add(d), p)
	p.Block()
}

// SleepUntil suspends the process until absolute time t. Times at or
// before now return after yielding once (preserving event ordering).
func (p *Proc) SleepUntil(t Time) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.WakeAt(t, p)
	p.Block()
}
