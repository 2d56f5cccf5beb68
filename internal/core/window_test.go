package core

import (
	"testing"

	"spiffi/internal/disk"
	"spiffi/internal/overload"
)

// plus and minus combine only counters (int64 and sim.Duration fields);
// a floor or peak is not a counter and keeps the first operand's value.
func TestCombineTouchesCountersOnly(t *testing.T) {
	end := overload.Stats{Sheds: 5, Restores: 3, LimitMin: 40, ShedPeak: 7}
	open := overload.Stats{Sheds: 2, Restores: 1, LimitMin: 90, ShedPeak: 2}
	if got, want := minus(end, open), (overload.Stats{Sheds: 3, Restores: 2, LimitMin: 40, ShedPeak: 7}); got != want {
		t.Fatalf("minus = %+v, want %+v", got, want)
	}
	a := disk.Stats{Served: 1, DownTime: 3}
	b := disk.Stats{Served: 2, DownTime: 4}
	if got, want := plus(a, b), (disk.Stats{Served: 3, DownTime: 7}); got != want {
		t.Fatalf("plus = %+v, want %+v", got, want)
	}
}
