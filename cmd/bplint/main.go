// Command bplint runs the repo's custom static-analysis suite (see
// internal/lint and DESIGN.md §"Static analysis") over the module and
// reports violations of the determinism, predictor-contract,
// counter-hygiene, I/O-discipline, and kernel hot-path invariants.
//
// Usage:
//
//	bplint ./...                      # whole module
//	bplint ./internal/...             # one subtree
//	bplint -rules det-time,det-rand ./...
//	bplint -list                      # describe every rule
//	bplint -format sarif ./...        # machine-readable output
//	bplint -baseline lint/baseline.json ./...
//	bplint -baseline lint/baseline.json -update-baseline ./...
//
// Analysis runs across a worker pool (-parallel, default GOMAXPROCS);
// output is byte-identical at every parallelism level.
//
// With -baseline, grandfathered findings are reported but don't fail the
// run; new findings do, as do baseline entries that no longer occur
// (burned-down debt — regenerate with -update-baseline).
//
// Exit status: 0 clean, 1 findings (or stale baseline), 2 usage or load
// error. Findings print as "file:line: [rule-id] message" and can be
// suppressed with a "//bplint:ignore rule-id reason" comment on or above
// the offending line; the ignore-reason rule rejects unjustified or
// stale suppressions.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"branchcorr/internal/lint"
)

func main() {
	var (
		rules    = flag.String("rules", "all", "comma-separated rule ids to run (see -list)")
		list     = flag.Bool("list", false, "list rules and exit")
		format   = flag.String("format", "text", "output format: text, json, or sarif")
		parallel = flag.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
		baseline = flag.String("baseline", "", "baseline file grandfathering known findings")
		update   = flag.Bool("update-baseline", false, "rewrite the -baseline file from current findings")
	)
	flag.Parse()

	if *list {
		for _, r := range lint.AllRules() {
			fmt.Printf("%-14s %s\n", r.ID(), r.Doc())
		}
		return
	}

	selected, err := lint.SelectRules(*rules)
	if err != nil {
		fatal(err)
	}
	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err = filterPackages(pkgs, root, flag.Args())
	if err != nil {
		fatal(err)
	}
	findings := lint.RunParallel(pkgs, selected, lint.RunOptions{Parallel: *parallel})

	if *update {
		if *baseline == "" {
			fatal(fmt.Errorf("-update-baseline requires -baseline"))
		}
		if err := lint.NewBaseline(findings, root).Save(*baseline); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bplint: baseline %s updated (%d finding(s))\n", *baseline, len(findings))
		return
	}

	report := findings
	var stale []lint.BaselineEntry
	if *baseline != "" {
		base, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		report, stale = base.Diff(findings, root)
	}

	switch *format {
	case "text":
		err = lint.WriteText(os.Stdout, report, root)
	case "json":
		err = lint.WriteJSON(os.Stdout, report, root)
	case "sarif":
		err = lint.WriteSARIF(os.Stdout, report, selected, root)
	default:
		fatal(fmt.Errorf("unknown -format %q (text, json, sarif)", *format))
	}
	if err != nil {
		fatal(err)
	}

	failed := false
	if len(report) > 0 {
		fmt.Fprintf(os.Stderr, "bplint: %d finding(s)\n", len(report))
		failed = true
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "bplint: stale baseline entry %s [%s] %s — regenerate with -update-baseline\n",
			e.File, e.Rule, e.Msg)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// filterPackages applies the command-line package patterns. Supported
// forms: "./..." (everything), "./dir/..." (subtree), "./dir" or "dir"
// (exact package directory). No patterns means everything.
func filterPackages(pkgs []*lint.Package, root string, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		return pkgs, nil
	}
	keep := make(map[*lint.Package]bool)
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" {
			return pkgs, nil
		}
		subtree := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			pat, subtree = rest, true
		}
		matched := false
		for _, p := range pkgs {
			if p.RelDir == pat || (subtree && (pat == "." || strings.HasPrefix(p.RelDir, pat+"/"))) {
				keep[p] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", pat)
		}
	}
	var out []*lint.Package
	for _, p := range pkgs {
		if keep[p] {
			out = append(out, p)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bplint:", err)
	os.Exit(2)
}
