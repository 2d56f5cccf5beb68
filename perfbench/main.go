// Command perfbench is the repository's benchmark. It drives one named
// workload through the simulator's public entry points for a fixed
// measuring time, checks every result, and prints as its last line one
// JSON object with the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced, profiled run (-trace 1). README.md lists the
// workloads and metrics.
//
//	go build -o perfbench . && ./perfbench -workload steady-base -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == setupChildArg {
		os.Exit(setupChild(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: steady-base, memory-search or premiere-storm")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		flag.Usage()
		os.Exit(2)
	}

	b := newBench(w, *seed, time.Duration(*seconds*float64(time.Second)))
	var metrics []metric
	var err error
	if *traceMode == 0 {
		metrics, err = b.endToEnd()
	} else {
		metrics, err = b.perLayer()
	}
	b.sp.end(b.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traceMode))
	if err := b.sp.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		os.Exit(1)
	}
	b.sp.printSelfTimes(os.Stdout)
	fmt.Printf("digest %s seed=%d %s\n", w.name, *seed, b.refDigest)
	if err := printResult(b, metrics); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spanDir is where span files go, relative to the repository root the
// benchmark runs from.
const spanDir = ".bench_build/perfbench/spans"

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

func printResult(b *bench, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// bench is one benchmark run of one workload.
type bench struct {
	w      workload
	seed   uint64
	budget time.Duration
	sp     *spans
	root   int

	attempted, failed int

	// ref is the first execution; every later one must reproduce its
	// digest, traced or not.
	ref       outcome
	refDigest string
}

func newBench(w workload, seed uint64, budget time.Duration) *bench {
	sp := newSpans()
	return &bench{w: w, seed: seed, budget: budget, sp: sp, root: sp.begin("benchmark", -1)}
}

// exec executes the workload once under span parent and settles the
// result against the first execution's digest.
func (b *bench) exec(parent int, traced bool) (outcome, bool) {
	o, err := b.w.execute(b.sp, parent, b.seed, traced)
	return o, b.settle(o, err, b.refDigest)
}

// settle checks one execution, counting its runs as attempted and, on
// an error, a failed check, or a digest other than want (when want is
// set), as failed.
func (b *bench) settle(o outcome, err error, want string) bool {
	b.attempted += o.runs
	if err == nil {
		err = o.check(b.seed)
	}
	if err == nil && want != "" && o.digest() != want {
		err = fmt.Errorf("simulated results digest %s, want %s", o.digest(), want)
	}
	if err != nil {
		b.failed += max(o.runs, 1)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", b.w.name, b.seed, err)
		return false
	}
	return true
}

// reference generates the video library cold and executes the workload
// once untraced; that execution fixes the digest and simulated metrics.
func (b *bench) reference() error {
	cfg := b.w.config(b.seed)
	id := b.sp.begin("SharedLibrary", b.root)
	generateLibrary(cfg)
	b.sp.end(id)
	id = b.sp.begin("reference", b.root)
	o, ok := b.exec(id, false)
	b.sp.end(id)
	if !ok {
		return fmt.Errorf("%s seed %d: the reference execution failed", b.w.name, b.seed)
	}
	b.ref, b.refDigest = o, o.digest()
	return nil
}

// rep executes the workload once, timed, under a span called name.
func (b *bench) rep(name string, traced bool) (rep, bool) {
	var ok bool
	r := timed(func() outcome {
		id := b.sp.begin(name, b.root)
		defer b.sp.end(id)
		var o outcome
		o, ok = b.exec(id, traced)
		return o
	})
	return r, ok
}

// loop repeats fn until d has passed, and at least three times.
func loop(d time.Duration, fn func()) {
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < d; i++ {
		fn()
	}
}

// setupProbes is how many fresh processes measure cold set-up.
const setupProbes = 15

const (
	mb     = 1e6
	millis = float64(time.Millisecond)
)

// endToEnd measures the workload untraced for the budget and returns
// the end-to-end metrics.
func (b *bench) endToEnd() ([]metric, error) {
	setup, err := coldSetup(b.sp, b.root, b.w, b.seed, setupProbes)
	if err != nil {
		return nil, err
	}
	if err := b.reference(); err != nil {
		return nil, err
	}
	var reps []rep
	loop(b.budget, func() {
		if r, ok := b.rep("rep", false); ok {
			reps = append(reps, r)
		}
	})
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s seed %d: every timed execution failed", b.w.name, b.seed)
	}
	rss, err := maxRSSBytes()
	if err != nil {
		return nil, err
	}
	// Trace neutrality: a traced execution must reproduce the digest.
	b.exec(b.root, true)

	return []metric{
		{"wall_s", "s", medianOf(reps, wallSeconds)},
		{"setup_s", "s", setup.Setup},
		{"alloc_mb", "MB", medianOf(reps, func(r rep) float64 { return float64(r.alloc) / mb })},
		{"max_rss_mb", "MB", rss / mb},
		{"max_terminals", "count", float64(maxTerminals(b.ref))},
	}, nil
}

// maxTerminals is the §7.1 metric: a search's answer, or for a single
// run the terminals it served without a glitch.
func maxTerminals(o outcome) int {
	if o.search != nil {
		return o.search.MaxTerminals
	}
	return o.single.Terminals - o.single.GlitchTerminals
}
