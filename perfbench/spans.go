package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made. Start and End are offsets
// from the recorder's creation; Parent indexes the enclosing span, -1
// for a root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spans keeps every span in memory until the benchmark ends. The
// benchmark calls the simulator from one goroutine, so spans need no
// locking.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{Name: name, Parent: parent, Start: time.Since(s.t0), End: -1})
	return len(s.list) - 1
}

// end closes span id and returns its duration.
func (s *spans) end(id int) time.Duration {
	sp := &s.list[id]
	sp.End = time.Since(s.t0)
	return sp.End - sp.Start
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func (s *spans) selfTimes() map[string]time.Duration {
	children := make([][]span, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := map[string]time.Duration{}
	for i, sp := range s.list {
		self[sp.Name] += sp.End - sp.Start - covered(children[i])
	}
	return self
}

// covered returns the length of the union of the spans' intervals.
func covered(cs []span) time.Duration {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total time.Duration
	end := time.Duration(-1)
	for _, c := range cs {
		if c.Start > end {
			total += c.End - c.Start
			end = c.End
		} else if c.End > end {
			total += c.End - end
			end = c.End
		}
	}
	return total
}

// write stores the spans as JSON at path.
func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printSelfTimes writes one line per span name, sorted by name.
func (s *spans) printSelfTimes(w io.Writer) {
	self := s.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "span %-18s self %.3fs\n", n, self[n].Seconds())
	}
}
