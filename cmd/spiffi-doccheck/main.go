// Command spiffi-doccheck keeps the documentation honest. It walks the
// repo's root-level markdown files and fails on two kinds of drift:
//
//   - broken intra-repo links: a [text](target) whose target — resolved
//     relative to the file, with any #fragment stripped — does not exist
//     on disk. External links (http/https/mailto) and pure-anchor links
//     (#section) are skipped; fragments are not verified.
//
//   - flag drift: every flag the simulator CLI registers
//     (internal/cli.Register, shared by all cmd/ binaries) must appear
//     as `-name` in README.md's Flag reference table, and every flag
//     in that table must still be registered, so `-h` output and the
//     README flag reference cannot drift apart in either direction.
//
// Run it via `make doc-check` (part of `make verify`). Exit status 1
// lists every finding; 0 means the docs match the tree and the CLI.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"spiffi/internal/cli"
)

// linkRE matches inline markdown links [text](target). Reference-style
// links and autolinks are rare in this repo and not checked.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// tableFlagRE matches a backticked flag name such as `-trace-out`.
var tableFlagRE = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string

	mds, err := filepath.Glob(filepath.Join(*root, "*.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, md := range mds {
		data, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, target := range links(string(data)) {
			p := filepath.Join(filepath.Dir(md), filepath.FromSlash(target))
			if _, err := os.Stat(p); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (no such file %s)", filepath.Base(md), target, p))
			}
		}
	}

	readme, err := os.ReadFile(filepath.Join(*root, "README.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	problems = append(problems, flagDrift(string(readme), flagNames())...)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("doc-check: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("doc-check: %d markdown files, %d CLI flags, all clean\n", len(mds), len(flagNames()))
}

// links extracts the intra-repo link targets from a markdown document:
// everything but external schemes and pure-anchor links, with any
// #fragment stripped.
func links(doc string) []string {
	var out []string
	for _, m := range linkRE.FindAllStringSubmatch(doc, -1) {
		target := m[1]
		if i := strings.IndexByte(target, '#'); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue // pure anchor: [text](#section)
		}
		if u, err := url.Parse(target); err == nil && u.Scheme != "" {
			continue // http, https, mailto, ...
		}
		out = append(out, target)
	}
	return out
}

// flagDrift compares the Flag reference table of a README with the
// registered flag names, in both directions.
func flagDrift(readme string, names []string) []string {
	var problems []string
	table := flagTable(readme)
	inTable := make(map[string]bool, len(table))
	for _, name := range table {
		inTable[name] = true
	}
	registered := make(map[string]bool, len(names))
	for _, name := range names {
		registered[name] = true
		if !inTable[name] {
			problems = append(problems,
				fmt.Sprintf("README.md: flag -%s (in every binary's -h output) is missing from the Flag reference", name))
		}
	}
	for _, name := range table {
		if !registered[name] {
			problems = append(problems,
				fmt.Sprintf("README.md: Flag reference lists -%s, which internal/cli does not register", name))
		}
	}
	return problems
}

// flagTable returns the flag names in the first column of the table
// under the "### Flag reference" heading, in row order.
func flagTable(readme string) []string {
	_, section, ok := strings.Cut(readme, "### Flag reference")
	if !ok {
		return nil
	}
	var names []string
	started := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if started {
				break
			}
			continue
		}
		started = true
		cells := strings.Split(line, "|")
		for _, m := range tableFlagRE.FindAllStringSubmatch(cells[1], -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// flagNames returns every flag name the shared CLI registers, in
// registration-independent sorted order.
func flagNames() []string {
	fs := flag.NewFlagSet("doccheck", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cli.Register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}
