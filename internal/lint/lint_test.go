package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureCases pairs each seeded fixture with the rule family it
// exercises. Running only the family keeps the want-comment bookkeeping
// one-rule-per-line. Cases list every package a module-level rule must
// see in one run.
var fixtureCases = []struct {
	name  string
	dirs  []string
	rules string
}{
	{"determfix", []string{"internal/determfix"}, "det-time,det-rand,det-map-order"},
	{"contractfix", []string{"internal/contractfix"}, "bp-contract,bp-registry"},
	{"counterfix", []string{"internal/counterfix"}, "ctr-saturate"},
	{"iofix", []string{"internal/iofix"}, "io-print,io-errcheck"},
	{"obsfix", []string{"internal/obsfix"}, "obs-io"},
	{"hotfix", []string{"internal/hotfix"}, "kernel-purity,bce-hoist"},
	{"depfix", []string{"internal/depfix"}, "dep-api"},
	{"syncfix", []string{"internal/syncfix"}, "sync-discipline"},
	{"ignorefix", []string{"internal/ignorefix"}, "det-time,ignore-reason"},
}

// loc is one (file, line, rule) diagnostic location.
type loc struct {
	file string
	line int
	rule string
}

func (l loc) String() string { return fmt.Sprintf("%s:%d [%s]", l.file, l.line, l.rule) }

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("Load(testdata/src): %v", err)
	}
	return pkgs
}

func findPackage(t *testing.T, pkgs []*Package, relDir string) *Package {
	t.Helper()
	for _, p := range pkgs {
		if p.RelDir == relDir {
			return p
		}
	}
	t.Fatalf("fixture package %q not loaded", relDir)
	return nil
}

// wantedFindings scans the fixture's want comments; each marks the exact
// line a diagnostic must anchor to. Both comment forms are accepted —
// "// want rule-id" and, for lines whose trailing position is taken by
// an ignore directive, "/* want rule-id */".
func wantedFindings(pkg *Package) []loc {
	var out []loc
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					if rest, ok = strings.CutPrefix(c.Text, "/* want "); ok {
						rest, ok = strings.CutSuffix(rest, "*/")
					}
				}
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, id := range strings.Fields(rest) {
					out = append(out, loc{filepath.Base(pos.Filename), pos.Line, id})
				}
			}
		}
	}
	return out
}

// TestFixtures asserts exact diagnostic positions: every want comment is
// matched by a finding on its line and no finding lacks a want. Because
// the comparison is exact, it also proves the //bplint:ignore directives
// in the fixtures suppress their findings (a broken ignore index would
// surface as an unexpected finding).
func TestFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			var run []*Package
			for _, dir := range tc.dirs {
				run = append(run, findPackage(t, pkgs, dir))
			}
			rules, err := SelectRules(tc.rules)
			if err != nil {
				t.Fatalf("SelectRules(%q): %v", tc.rules, err)
			}
			got := make(map[loc]string)
			for _, f := range Run(run, rules) {
				l := loc{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Rule}
				got[l] = f.Msg
				if f.Msg == "" {
					t.Errorf("%v: empty message", l)
				}
			}
			var want []loc
			for _, pkg := range run {
				want = append(want, wantedFindings(pkg)...)
			}
			for _, w := range want {
				if _, ok := got[w]; !ok {
					t.Errorf("missing finding %v", w)
				}
				delete(got, w)
			}
			for l, msg := range got {
				t.Errorf("unexpected finding %v: %s", l, msg)
			}
		})
	}
}

// TestFixturesHaveIgnores guards the suppression coverage claim above:
// each fixture family that documents an ignore must actually contain the
// directive (so TestFixtures keeps exercising the suppression path).
func TestFixturesHaveIgnores(t *testing.T) {
	pkgs := loadFixtures(t)
	for _, dir := range []string{"internal/determfix", "internal/counterfix", "internal/iofix", "internal/obsfix", "internal/hotfix", "internal/ignorefix"} {
		pkg := findPackage(t, pkgs, dir)
		if len(buildIgnoreIndex([]*Package{pkg}).all) == 0 {
			t.Errorf("%s: no //bplint:ignore directive; suppression is untested", dir)
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Rule: "det-time", Msg: "no clocks"}
	f.Pos.Filename = "internal/sim/sim.go"
	f.Pos.Line = 42
	want := "internal/sim/sim.go:42: [det-time] no clocks"
	if got := f.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSelectRules(t *testing.T) {
	all, err := SelectRules("all")
	if err != nil || len(all) != len(AllRules()) {
		t.Fatalf("SelectRules(all) = %d rules, err %v", len(all), err)
	}
	two, err := SelectRules("det-time, io-print")
	if err != nil || len(two) != 2 {
		t.Fatalf("SelectRules subset = %d rules, err %v", len(two), err)
	}
	if _, err := SelectRules("no-such-rule"); err == nil {
		t.Error("SelectRules(no-such-rule) should fail")
	}
}

func TestRuleIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range RuleIDs() {
		if seen[id] {
			t.Errorf("duplicate rule id %q", id)
		}
		seen[id] = true
	}
}

// TestRepoIsClean dogfoods the suite over the module itself: the tree
// must stay free of findings (fix the code or add a justified
// //bplint:ignore; never let findings accumulate silently).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("Abs: %v", err)
	}
	pkgs, err := Load(root)
	if err != nil {
		t.Fatalf("Load(module root): %v", err)
	}
	for _, f := range Run(pkgs, AllRules()) {
		t.Errorf("finding: %s", f)
	}
}
