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
//
// Analysis runs across a worker pool (-parallel, default GOMAXPROCS);
// output is byte-identical at every parallelism level.
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Findings print as "file:line: [rule-id] message" and can be
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

	switch *format {
	case "text":
		err = lint.WriteText(os.Stdout, findings, root)
	case "json":
		err = lint.WriteJSON(os.Stdout, findings, root)
	case "sarif":
		err = lint.WriteSARIF(os.Stdout, findings, selected, root)
	default:
		fatal(fmt.Errorf("unknown -format %q (text, json, sarif)", *format))
	}
	if err != nil {
		fatal(err)
	}

	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bplint: %d finding(s)\n", len(findings))
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
