package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"spiffi/internal/core"
	"spiffi/internal/mpeg"
)

// setupChildArg makes the benchmark binary act as a cold set-up probe.
const setupChildArg = "setup-child"

// setupTimes is what one set-up probe measured.
type setupTimes struct {
	// Setup is the probe process's whole life, timed by its parent:
	// exec, runtime start and package initialisation, then set-up to
	// the first simulation ready.
	Setup float64 `json:"-"`
	// Library is generating the video library alone, timed in the
	// probe.
	Library float64 `json:"library_s"`
}

// setupChild is the probe's main: it generates the workload's video
// library cold, assembles its first simulation, and prints the library
// time.
func setupChild(args []string) int {
	fs := flag.NewFlagSet(setupChildArg, flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "workload seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "setup probe: unknown workload %q\n", *name)
		return 2
	}
	cfg := w.config(*seed)
	tl := time.Now()
	generateLibrary(cfg)
	lib := time.Since(tl)
	if _, err := core.NewSimulation(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "setup probe:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(setupTimes{Library: lib.Seconds()}); err != nil {
		return 1
	}
	return 0
}

// generateLibrary generates every video of cfg's library. The shared
// library makes videos on first use, and NewSimulation uses them all.
func generateLibrary(cfg core.Config) {
	lib := mpeg.SharedLibrary(cfg.Video, cfg.NumVideos(), cfg.LibrarySeed)
	for i := 0; i < lib.Count(); i++ {
		lib.Get(i)
	}
}

// coldSetup runs n set-up probes, one fresh process each, one after
// another, and returns the median of each time.
func coldSetup(sp *spans, parent int, w workload, seed uint64, n int) (setupTimes, error) {
	self, err := os.Executable()
	if err != nil {
		return setupTimes{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	var setups, libs []float64
	for i := 0; i < n; i++ {
		var stdout bytes.Buffer
		cmd := exec.Command(self, setupChildArg, "-workload", w.name, "-seed", fmt.Sprint(seed))
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		id := sp.begin("setup-probe", parent)
		err := cmd.Run()
		d := sp.end(id)
		if err != nil {
			return setupTimes{}, fmt.Errorf("set-up probe: %w", err)
		}
		var t setupTimes
		if err := json.Unmarshal(stdout.Bytes(), &t); err != nil {
			return setupTimes{}, fmt.Errorf("set-up probe output: %w", err)
		}
		setups = append(setups, d.Seconds())
		libs = append(libs, t.Library)
	}
	return setupTimes{Setup: median(setups), Library: median(libs)}, nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes returns the process's peak resident set size.
func maxRSSBytes() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	if ru.Maxrss <= 0 {
		return 0, errors.New("getrusage reported no peak RSS")
	}
	return float64(ru.Maxrss) * 1024, nil // Linux reports kilobytes
}

// rep is one timed execution of a workload.
type rep struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64 // bytes allocated
	mallocs uint64 // heap objects allocated
	out     outcome
}

// timed runs fn after a full GC, so every repetition starts from the
// same heap, and measures its wall time, CPU time and allocation.
func timed(fn func() outcome) rep {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	o := fn()
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return rep{
		wall:    wall,
		cpu:     c1 - c0,
		alloc:   m1.TotalAlloc - m0.TotalAlloc,
		mallocs: m1.Mallocs - m0.Mallocs,
		out:     o,
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func wallSeconds(r rep) float64 { return r.wall.Seconds() }

// medianOf returns the median of f over the repetitions.
func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}
