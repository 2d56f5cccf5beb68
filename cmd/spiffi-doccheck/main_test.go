package main

import (
	"reflect"
	"testing"
)

// A synthetic README whose Flag reference lacks one registered flag and
// still lists a deleted one: both directions must be reported, and
// backticked flags outside the table must not count.
func TestFlagDriftBothDirections(t *testing.T) {
	readme := "Run with `-nodes 2`.\n\n" +
		"### Flag reference\n\n" +
		"Shared flags.\n\n" +
		"| Flag | Meaning |\n" +
		"|---|---|\n" +
		"| `-terminals`, `-trace-out` | viewers, trace path |\n" +
		"| `-patience` | a flag since deleted |\n" +
		"\n" +
		"`spiffi-sim -v` is per-tool.\n"
	got := flagDrift(readme, []string{"nodes", "terminals", "trace-out"})
	want := []string{
		"README.md: flag -nodes (in every binary's -h output) is missing from the Flag reference",
		"README.md: Flag reference lists -patience, which internal/cli does not register",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagDrift = %q, want %q", got, want)
	}
}
