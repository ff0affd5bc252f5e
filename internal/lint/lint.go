// Package lint is the repo's custom static-analysis engine (driven by
// cmd/bplint). It loads every package of the module with go/parser and
// go/types — no dependencies beyond the standard library — and enforces
// the invariants the paper reproduction rests on: bit-for-bit determinism
// of the simulator, the two-level Predict/Update contract, saturating-
// counter hygiene, I/O discipline, and (since v2) the allocation-freedom
// and bounds-check hygiene of the kernel hot paths, checked through a
// package-level call-graph/dataflow pass (see analysis.go). DESIGN.md
// §"Static analysis" documents each rule and the paper-level property it
// protects.
//
// Findings can be suppressed with a comment on the offending line or the
// line directly above it:
//
//	x := sloppy() //bplint:ignore det-time legitimate wall-clock use
//	//bplint:ignore io-print,io-errcheck CLI entry point prints its report
//	fmt.Println("report")
//
// The comment names one rule id, a comma-separated list, or "all", and
// must be followed by a justification — the ignore-reason rule rejects
// bare directives and directives that no longer suppress anything.
package lint

import (
	"context"
	"fmt"
	"go/token"
	"sort"
	"strings"

	"branchcorr/internal/runner"
)

// Finding is one diagnostic produced by a rule.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical "file:line: [rule] msg"
// form the driver prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Rule is one named check run over a type-checked package.
type Rule interface {
	// ID is the stable rule identifier used by -rules selection and
	// //bplint:ignore comments.
	ID() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Check inspects one package and returns its findings.
	Check(pkg *Package) []Finding
}

// moduleRule is a Rule needing whole-module facts (call graph, hot-path
// reachability, deprecation index). CheckModule runs once per Run, not
// once per package; such a rule's Check is never called.
type moduleRule interface {
	Rule
	CheckModule(m *Module) []Finding
}

// AllRules returns the full rule set in reporting order.
func AllRules() []Rule {
	return []Rule{
		detTimeRule{},
		detRandRule{},
		detMapOrderRule{},
		contractRule{},
		registryRule{},
		counterRule{},
		ioPrintRule{},
		errcheckRule{},
		obsIORule{},
		purityRule{},
		bceRule{},
		depAPIRule{},
		syncRule{},
		ignoreReasonRule{},
	}
}

// SelectRules resolves a comma-separated id list ("" or "all" selects
// every rule).
func SelectRules(ids string) ([]Rule, error) {
	all := AllRules()
	if ids == "" || ids == "all" {
		return all, nil
	}
	byID := make(map[string]Rule, len(all))
	for _, r := range all {
		byID[r.ID()] = r
	}
	var out []Rule
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		r, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q (known: %s)", id, strings.Join(RuleIDs(), ","))
		}
		out = append(out, r)
	}
	return out, nil
}

// RuleIDs lists every rule id in reporting order.
func RuleIDs() []string {
	all := AllRules()
	out := make([]string, len(all))
	for i, r := range all {
		out[i] = r.ID()
	}
	return out
}

// RunOptions configures a lint run.
type RunOptions struct {
	// Parallel is the worker count for the per-package/per-rule cells;
	// 0 selects GOMAXPROCS. Output is identical at every level.
	Parallel int
}

// Run applies the rules to every package and returns the surviving
// findings, ordered by file, line, and rule. Findings matched by a
// //bplint:ignore comment are dropped. It is RunParallel at the
// canonical (sequential) parallelism.
func Run(pkgs []*Package, rules []Rule) []Finding {
	return RunParallel(pkgs, rules, RunOptions{Parallel: 1})
}

// RunParallel is Run with an explicit worker count. Each (package, rule)
// pair — and each module-level rule — is one cell of the internal/runner
// pool with a pre-assigned result slot, so the merged finding list is
// byte-identical at every parallelism level.
func RunParallel(pkgs []*Package, rules []Rule, opts RunOptions) []Finding {
	var (
		plain  []Rule
		module []moduleRule
		irRule Rule // ignore-reason runs after suppression; see below
	)
	for _, r := range rules {
		if _, ok := r.(ignoreReasonRule); ok {
			irRule = r
			continue
		}
		if mr, ok := r.(moduleRule); ok {
			module = append(module, mr)
			continue
		}
		plain = append(plain, r)
	}

	// The module facts are shared read-only by every module rule; the
	// ignore index is shared too, but its use counters are only touched
	// in the sequential suppression pass after the pool drains.
	var mod *Module
	if len(module) > 0 {
		mod = NewModule(pkgs)
	}
	ignores := buildIgnoreIndex(pkgs)

	cells := make([]runner.Cell, 0, len(pkgs)*len(plain)+len(module))
	slots := make([][]Finding, 0, cap(cells))
	addCell := func(exhibit, workload string, run func() []Finding) {
		i := len(slots)
		slots = append(slots, nil)
		cells = append(cells, runner.Cell{
			Exhibit:  exhibit,
			Workload: workload,
			Run: func(context.Context) error {
				slots[i] = run()
				return nil
			},
		})
	}
	for _, pkg := range pkgs {
		for _, rule := range plain {
			pkg, rule := pkg, rule
			addCell(rule.ID(), pkg.Path, func() []Finding { return rule.Check(pkg) })
		}
	}
	for _, mr := range module {
		mr := mr
		addCell(mr.ID(), "", func() []Finding { return mr.CheckModule(mod) })
	}
	if err := runner.Run(context.Background(), cells, runner.Options{Parallel: opts.Parallel}); err != nil {
		// Cells never return errors; only external context cancellation
		// could land here, and we pass a background context.
		panic("lint: runner failed: " + err.Error())
	}

	var out []Finding
	for _, fs := range slots {
		for _, f := range fs {
			if ignores.suppress(f) {
				continue
			}
			out = append(out, f)
		}
	}
	// ignore-reason runs last: staleness is defined by what the other
	// selected rules' suppression pass actually used.
	if irRule != nil {
		fullSet := len(rules) == len(AllRules())
		for _, f := range checkIgnoreReasons(ignores, rules, fullSet) {
			if ignores.suppress(f) {
				continue
			}
			out = append(out, f)
		}
	}
	sortFindings(out)
	return out
}

// sortFindings orders findings canonically: file, line, rule, message.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// hasSegment reports whether the package import path contains the given
// path segment (e.g. "internal" or "cmd"), which is how rules scope
// themselves to the simulator proper and its commands.
func (p *Package) hasSegment(seg string) bool {
	for _, s := range strings.Split(p.Path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}
