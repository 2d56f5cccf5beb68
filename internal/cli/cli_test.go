package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"spiffi/internal/overload"
)

// parse registers the shared flags on a fresh set and parses args.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("cli-test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// Sub-option flags without the flag that arms their feature are
// rejected instead of silently dropped.
func TestSubOptionsNeedTheirFeature(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-vcrskim"}, "-vcrskim requires -vcr"},
		{[]string{"-cachepolicy", "lru"}, "require -cache"},
		{[]string{"-prefixblocks", "4"}, "require -cache"},
		{[]string{"-cachedecay", "100"}, "require -cache"},
	} {
		_, err := parse(t, c.args...).Config()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
	}
	for _, args := range [][]string{
		{"-vcr", "2", "-vcrskim"},
		{"-cache", "32", "-cachepolicy", "zipf-rank", "-prefixblocks", "4", "-cachedecay", "100"},
	} {
		if _, err := parse(t, args...).Config(); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// With no arguments the overload, failover and retry settings stay at
// their zero values, so core's Normalize decides every default.
func TestConfigDefaultsLeaveExtensionsOff(t *testing.T) {
	cfg, err := parse(t).Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Overload != (overload.Config{}) {
		t.Errorf("Overload = %+v, want zero", cfg.Overload)
	}
	if cfg.Failover {
		t.Error("Failover set by default")
	}
	if cfg.RequestTimeout != 0 || cfg.MaxRetries != 0 || cfg.RetryBackoff != 0 || cfg.RetryJitter != 0 {
		t.Errorf("retry fields = %v/%d/%v/%v, want zero",
			cfg.RequestTimeout, cfg.MaxRetries, cfg.RetryBackoff, cfg.RetryJitter)
	}
}
