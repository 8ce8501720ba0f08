// Command mlight-lint runs the repository's invariant checkers
// (internal/analysis) over the given packages: determinism (no wall clock,
// global rand, or per-process-seeded hash/maphash outside experiment/driver
// packages — internal/hashseed is the stable-hash substitute), droppederr (no
// silently dropped RPC/DHT/retry errors), decoratorcomplete (DHT
// decorators forward every optional capability interface), and hotpath
// (functions marked //lint:hotpath stay allocation-free under the
// compiler's escape analysis).
//
//	mlight-lint ./...
//	mlight-lint -json ./...
//	mlight-lint -passes hotpath ./internal/...
//
// Diagnostics print as "file:line:col: [pass] message". The exit status is
// 0 when the tree is clean, 1 when findings are reported, and 2 when the
// packages cannot be loaded. Suppress an individual finding with a
// reasoned directive on or immediately above the flagged line:
//
//	//lint:allow <pass> <reason>
//
// A directive that lacks a reason, suppresses nothing, or names an unknown
// pass is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mlight/internal/analysis"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlight-lint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("mlight-lint", flag.ContinueOnError)
	var (
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array")
		passList = fs.String("passes", "", "comma-separated pass subset (default: all)")
		list     = fs.Bool("list", false, "list available passes and exit")
		dir      = fs.String("C", ".", "directory to resolve package patterns from")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	passes := analysis.Passes()
	if *list {
		for _, p := range passes {
			fmt.Fprintf(out, "%-18s %s\n", p.Name(), p.Doc())
		}
		return 0, nil
	}
	if *passList != "" {
		byName := make(map[string]analysis.Pass)
		for _, p := range passes {
			byName[p.Name()] = p
		}
		passes = nil
		for _, name := range strings.Split(*passList, ",") {
			p, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return 2, fmt.Errorf("unknown pass %q", name)
			}
			passes = append(passes, p)
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns)
	if err != nil {
		return 2, err
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.Run(pkg, passes, nil)...)
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return 2, err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "mlight-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1, nil
	}
	return 0, nil
}
