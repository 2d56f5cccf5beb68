package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reduces a runtime/pprof CPU profile to host time per
// repository module. It decodes just the parts of the profile.proto
// format the reduction needs: samples, locations (with inlined lines),
// functions and the string table.

// repoPrefix marks a frame of the simulator's own modules.
const repoPrefix = "spiffi/internal/"

// Buckets for stacks that hold no repository frame.
const (
	bucketSched = "runtime.sched" // goroutine switching
	bucketGC    = "runtime.gc"    // background GC workers
	bucketOther = "other"         // everything else (syscalls, the benchmark itself)
)

// sample is one profile sample: its stack as function names, innermost
// first, and its CPU time in nanoseconds.
type sample struct {
	stack []string
	value int64
}

// hostShares charges each sample to the innermost repository frame on
// its stack, named by module ("sim", "terminal", ...); stacks with no
// repository frame go to bucketSched, bucketGC or bucketOther. The
// result maps bucket to its share of all sampled CPU time.
func hostShares(samples []sample) map[string]float64 {
	var total int64
	sums := map[string]int64{}
	for _, s := range samples {
		sums[bucketOf(s.stack)] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(sums))
	for b, v := range sums {
		if total > 0 {
			shares[b] = float64(v) / float64(total)
		}
	}
	return shares
}

func bucketOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return bucketGC
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.mcall", "runtime.park_m", "runtime.schedule":
			return bucketSched
		}
	}
	return bucketOther
}

// parseProfile decodes a gzipped profile.proto CPU profile into samples
// valued in CPU nanoseconds.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		types     [][2]int64              // sample_type (type, unit) string indexes
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return varints(v, p, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, p, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// The CPU profile's value is the "cpu"/"nanoseconds" column.
	col := -1
	for i, t := range types {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			col = i
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if col >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{value: rs.values[col]}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields walks a protobuf message, calling f with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, f func(num int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var p []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			p = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, p); err != nil {
			return err
		}
	}
	return nil
}

// varints feeds a repeated varint field to add, whether it arrived as a
// single value (p nil) or packed.
func varints(v uint64, p []byte, add func(uint64)) error {
	if p == nil {
		add(v)
		return nil
	}
	for len(p) > 0 {
		x, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		p = p[n:]
	}
	return nil
}
