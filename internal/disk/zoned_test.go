package disk

import (
	"testing"

	"spiffi/internal/dsched"
	"spiffi/internal/rng"
	"spiffi/internal/sim"
)

func TestGeometryZoneTable(t *testing.T) {
	zp := DefaultZonedParams()
	g := zp.NewGeometry()
	// Total capacity stays close to the constant-cylinder capacity
	// (ratios straddle 1 symmetrically).
	uniform := int64(zp.TotalCylinders) * zp.CylinderBytes
	if diff := float64(g.TotalBytes()-uniform) / float64(uniform); diff > 0.01 || diff < -0.01 {
		t.Fatalf("zoned capacity deviates %.2f%% from uniform", diff*100)
	}
	// Outer zone cylinders hold more than inner ones.
	if g.cylBytes[0] <= g.cylBytes[len(g.cylBytes)-1] {
		t.Fatal("outer zone must hold more per cylinder")
	}
	if g.rate[0] <= g.rate[len(g.rate)-1] {
		t.Fatal("outer zone must transfer faster")
	}
}

func TestGeometryCylinderMonotone(t *testing.T) {
	g := DefaultZonedParams().NewGeometry()
	last := -1
	for off := int64(0); off < g.TotalBytes(); off += 10_000_000 {
		c := g.Cylinder(off)
		if c < last {
			t.Fatalf("cylinder decreased at offset %d: %d < %d", off, c, last)
		}
		last = c
	}
	if g.Cylinder(0) != 0 {
		t.Fatal("first byte must be cylinder 0")
	}
}

func TestGeometryZoneBoundaries(t *testing.T) {
	zp := DefaultZonedParams()
	g := zp.NewGeometry()
	for z := 1; z < zp.NumZones; z++ {
		// First byte of a zone lands on that zone's first cylinder.
		if got := g.Cylinder(g.zoneStartByte[z]); got != g.zoneStartCyl[z] {
			t.Fatalf("zone %d start: cylinder %d, want %d", z, got, g.zoneStartCyl[z])
		}
		// Last byte of the previous zone is in the previous zone.
		if got := g.Cylinder(g.zoneStartByte[z] - 1); got >= g.zoneStartCyl[z] {
			t.Fatalf("zone %d boundary leaks backward", z)
		}
	}
}

func TestZonedDiskTransfersFasterOnOuterZone(t *testing.T) {
	zp := DefaultZonedParams()
	zp.CacheContexts = 0 // isolate the transfer path
	run := func(offset int64) sim.Duration {
		k := sim.NewKernel()
		defer k.Close()
		var done []*dsched.Request
		d := NewZoned(k, 0, zp, dsched.Config{Kind: dsched.KindFCFS}.New(), rng.New(7), func(r *dsched.Request) {
			done = append(done, r)
		})
		k.At(0, func() {
			// Position the head first so seek is identical (zero).
			d.headCyl = d.cylinderOf(offset)
			d.Submit(&dsched.Request{Offset: offset, Size: 1024 * 1024})
		})
		if err := k.Run(sim.Time(2 * sim.Second)); err != nil {
			t.Fatal(err)
		}
		return d.Stats().TransferTime
	}
	outer := run(0)
	inner := run(zp.NewGeometry().TotalBytes() - 2*1024*1024)
	ratio := float64(inner) / float64(outer)
	want := zp.OuterRatio / zp.InnerRatio // ~1.86
	if ratio < want*0.95 || ratio > want*1.05 {
		t.Fatalf("inner/outer transfer ratio = %v, want ~%v", ratio, want)
	}
}

func TestZonedShapeValidation(t *testing.T) {
	zp := DefaultZonedParams()
	zp.NumZones = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid zone shape must panic")
		}
	}()
	zp.NewGeometry()
}
