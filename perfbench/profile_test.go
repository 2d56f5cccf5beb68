package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) msg(num int, f func(*pb)) {
	var m pb
	f(&m)
	p.bytes(num, m.b)
}

func (p *pb) packed(num int, vs ...uint64) {
	var m pb
	for _, v := range vs {
		m.b = binary.AppendUvarint(m.b, v)
	}
	p.bytes(num, m.b)
}

// syntheticProfile encodes a gzipped CPU profile whose samples have the
// given stacks (innermost first; each location a list of functions,
// inlined callee first) and CPU times.
func syntheticProfile(t *testing.T, stacks [][][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		if i := slices.Index(strs, s); i >= 0 {
			return uint64(i)
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	funcID := map[string]uint64{}
	var p pb
	p.msg(1, func(m *pb) { m.varint(1, str("samples")); m.varint(2, str("count")) })
	p.msg(1, func(m *pb) { m.varint(1, str("cpu")); m.varint(2, str("nanoseconds")) })
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			id := locID
			locs = append(locs, id)
			p.msg(4, func(m *pb) {
				m.varint(1, id)
				for _, fn := range loc {
					fid, ok := funcID[fn]
					if !ok {
						fid = uint64(len(funcID) + 1)
						funcID[fn] = fid
						name := str(fn)
						p.msg(5, func(f *pb) { f.varint(1, fid); f.varint(2, name) })
					}
					m.msg(4, func(l *pb) { l.varint(1, fid); l.varint(2, 10) })
				}
			})
		}
		p.msg(2, func(m *pb) {
			if len(locs) > 2 {
				m.packed(1, locs...) // Go packs longer lists ...
			} else {
				for _, l := range locs { // ... and writes short ones field by field
					m.varint(1, l)
				}
			}
			m.varint(2, 1)
			m.varint(2, uint64(nanos[i]))
		})
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestHostSharesSynthetic(t *testing.T) {
	stacks := [][][]string{
		// Runtime channel frames under the kernel's handoff charge to sim,
		// not to the terminal that called it.
		{{"runtime.chansend"}, {"spiffi/internal/sim.(*Proc).Block"}, {"spiffi/internal/terminal.(*Terminal).fetcher"}},
		// An inlined pool call is the innermost repo frame of its location.
		{{"runtime.mallocgc"}, {"spiffi/internal/bufferpool.(*Pool).lookup", "spiffi/internal/server.(*Node).handle"}},
		// Goroutine switching with no repo frame is scheduler time.
		{{"runtime.futex"}, {"runtime.schedule"}, {"runtime.park_m"}, {"runtime.mcall"}},
		// Background GC workers are GC time.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		// Anything else is neither.
		{{"main.main"}},
		// A nested package path charges to its top-level module.
		{{"spiffi/internal/disk/model.seek"}},
	}
	nanos := []int64{40e6, 20e6, 25e6, 5e6, 5e6, 5e6}
	samples, err := parseProfile(syntheticProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[1].stack; !slices.Equal(got, []string{"runtime.mallocgc",
		"spiffi/internal/bufferpool.(*Pool).lookup", "spiffi/internal/server.(*Node).handle"}) {
		t.Errorf("inlined stack = %q", got)
	}
	want := map[string]float64{
		"sim": 0.40, "bufferpool": 0.20, bucketSched: 0.25, bucketGC: 0.05, bucketOther: 0.05, "disk": 0.05,
	}
	got := hostShares(samples)
	if len(got) != len(want) {
		t.Errorf("buckets = %v, want %v", got, want)
	}
	for b, w := range want {
		if math.Abs(got[b]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", b, got[b], w)
		}
	}
}

func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if slices.Contains(s.stack, "spiffi/perfbench.spin") || slices.Contains(s.stack, "main.spin") {
			return
		}
	}
	t.Fatalf("no sample of %d has the spinning function on its stack", len(samples))
}

var spinSink uint64

func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}
