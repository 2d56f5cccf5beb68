package network

import (
	"reflect"
	"testing"

	"spiffi/internal/faults"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

// Messages sent at the same instant with the same size must be
// delivered in send order: the kernel breaks timestamp ties by event
// sequence, which is what makes seeded runs reproducible.
func TestEqualTimestampDeliveryOrder(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	n := New(k)
	var order []int
	k.At(0, func() {
		for i := 0; i < 8; i++ {
			i := i
			n.Send(1000, func() { order = append(order, i) })
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(order, want) {
		t.Fatalf("equal-timestamp delivery order = %v, want %v", order, want)
	}
}

// scriptedHook drops every third message and delays the rest by a
// fixed extra latency.
type scriptedHook struct {
	calls int
	extra sim.Duration
}

func (h *scriptedHook) Mangle(int64) (bool, sim.Duration) {
	h.calls++
	if h.calls%3 == 0 {
		return true, 0
	}
	return false, h.extra
}

func TestHookDropsAndJitters(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	n := New(k)
	n.SetHook(&scriptedHook{extra: sim.Millisecond})
	var times []sim.Time
	k.At(0, func() {
		for i := 0; i < 6; i++ {
			n.Send(1000, func() { times = append(times, k.Now()) })
		}
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("delivered %d of 6, want 4 (every third dropped)", len(times))
	}
	if n.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", n.Dropped())
	}
	want := sim.Time(0).Add(n.WireDelay(1000)).Add(sim.Millisecond)
	for _, at := range times {
		if at != want {
			t.Fatalf("jittered delivery at %v, want %v", at, want)
		}
	}
	// Dropped messages are still metered (the sender did put them on the
	// wire) but the drop counter resets with the window stats.
	if n.Messages() != 6 {
		t.Fatalf("messages = %d, want 6", n.Messages())
	}
	n.ResetStats()
	if n.Dropped() != 0 {
		t.Fatal("reset did not clear the drop counter")
	}
}

// Two identically seeded fault models must mangle an identical send
// sequence identically: same drops, same jitter, message for message.
func TestNetModelDeterminism(t *testing.T) {
	cfg := faults.Config{NetLossProb: 0.3, NetJitterMax: 2 * sim.Millisecond}
	run := func() []sim.Time {
		k := sim.NewKernel()
		defer k.Close()
		n := New(k)
		n.SetHook(faults.NewNetModel(cfg, rng.New(42)))
		times := []sim.Time{}
		k.At(0, func() {
			for i := 0; i < 200; i++ {
				i := i
				n.Send(int64(100+i), func() { times = append(times, k.Now()) })
			}
		})
		if err := k.RunAll(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical seeds mangled differently: %d vs %d deliveries", len(a), len(b))
	}
	if len(a) == 200 {
		t.Fatal("30% loss dropped nothing")
	}
	jittered := false
	for _, at := range a {
		if at.Sub(sim.Time(0)) > 50*sim.Microsecond {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("jitter never applied")
	}
}
