package network

import (
	"math"
	"testing"

	"spiffi/internal/sim"
)

func TestWireDelayFormula(t *testing.T) {
	n := New(sim.NewKernel())
	// 5 µs + 0.04 µs/byte: a 1000-byte message takes 45 µs.
	if got, want := n.WireDelay(1000), sim.Duration(45*sim.Microsecond); got != want {
		t.Fatalf("WireDelay(1000) = %v, want %v", got, want)
	}
	if got, want := n.WireDelay(0), sim.Duration(5*sim.Microsecond); got != want {
		t.Fatalf("WireDelay(0) = %v, want %v", got, want)
	}
	// A 512 KB stripe block: 5µs + 524288*0.04µs ~ 21.0ms.
	ms := n.WireDelay(512*1024).Seconds() * 1000
	if math.Abs(ms-20.98) > 0.05 {
		t.Fatalf("512KB wire delay = %vms, want ~20.98", ms)
	}
}

func TestSendDeliversAfterDelay(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	n := New(k)
	var deliveredAt sim.Time = -1
	k.At(0, func() {
		n.Send(1000, func() { deliveredAt = k.Now() })
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(45 * sim.Microsecond); deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestNoQueueingUnlimitedBandwidth(t *testing.T) {
	// Two messages sent simultaneously arrive simultaneously: the bus has
	// unlimited aggregate bandwidth (§6.2).
	k := sim.NewKernel()
	defer k.Close()
	n := New(k)
	var times []sim.Time
	k.At(0, func() {
		n.Send(1000, func() { times = append(times, k.Now()) })
		n.Send(1000, func() { times = append(times, k.Now()) })
	})
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if times[0] != times[1] {
		t.Fatalf("concurrent sends serialized: %v vs %v", times[0], times[1])
	}
}

func TestBandwidthMetering(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	n := New(k)
	k.At(0, func() { n.Send(1_000_000, func() {}) })
	k.At(sim.Time(2*sim.Second), func() { n.Send(3_000_000, func() {}) })
	if err := k.RunAll(); err != nil {
		t.Fatal(err)
	}
	if got := n.PeakAggregateBandwidth(); got != 3_000_000 {
		t.Fatalf("peak = %v, want 3e6", got)
	}
	if got := n.TotalBytes(); got != 4_000_000 {
		t.Fatalf("total = %v", got)
	}
	if n.Messages() != 2 {
		t.Fatalf("messages = %d", n.Messages())
	}
	n.ResetStats()
	if n.TotalBytes() != 0 || n.Messages() != 0 {
		t.Fatal("reset did not clear")
	}
}
