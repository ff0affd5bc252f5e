package main

import (
	"context"
	"io"
	"strings"
	"testing"

	"branchcorr/internal/experiments"
	"branchcorr/internal/runner"
)

// runOptions is a small, quiet, sequential run over gcc and perl (the
// Figure 9 pair), with one extra predictor so every exhibit is present.
func runOptions(exhibits string) options {
	return options{n: 5_000, wls: "gcc,perl", exhibits: exhibits, parallel: 1, quiet: true, specs: []string{"bimodal:10"}}
}

// wantReport builds the exhibits on a suite configured as runOptions
// configures the command.
func wantReport(t *testing.T, exhibits []string) *experiments.Report {
	t.Helper()
	o := runOptions("")
	s, err := experiments.NewSuite(experiments.Config{Length: o.n, Workloads: strings.Split(o.wls, ","), ExtraSpecs: o.specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.BuildReport(context.Background(), exhibits, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunAllExhibits(t *testing.T) {
	var out strings.Builder
	if err := run(runOptions("all"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := wantReport(t, nil)
	for _, e := range experiments.ExhibitOrder() {
		if text, ok := want.RenderExhibit(e); !ok || !strings.Contains(out.String(), text) {
			t.Errorf("-exhibits all did not render %s", e)
		}
	}
	if out.String() != want.Render() {
		t.Error("-exhibits all output differs from the full report's rendering")
	}
}

func TestRunExhibitSubset(t *testing.T) {
	var out strings.Builder
	if err := run(runOptions("table2, fig4,table2"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := wantReport(t, []string{"fig4", "table2"}).Render(); out.String() != want {
		t.Errorf("-exhibits table2,fig4 output:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestRunUnknownExhibit checks that a misspelt exhibit name fails with
// an error naming it, before the run generates any trace: with progress
// logging on, nothing reaches stderr.
func TestRunUnknownExhibit(t *testing.T) {
	var out, progress strings.Builder
	o := runOptions("fig4,bogus")
	o.quiet = false
	err := run(o, &out, &progress)
	if err == nil || !strings.Contains(err.Error(), `unknown exhibit "bogus"`) {
		t.Errorf("err = %v, want an unknown-exhibit error naming bogus", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed run wrote %d bytes of report", out.Len())
	}
	if strings.Contains(progress.String(), "generating") {
		t.Errorf("failed run generated traces first:\n%s", progress.String())
	}
}

// TestRunSkipsFig9 checks that a -workloads subset without perl drops
// fig9 from the report instead of failing it, and that a run asking for
// fig9 alone then prints nothing.
func TestRunSkipsFig9(t *testing.T) {
	for exhibits, wantTable1 := range map[string]bool{"fig9": false, "table1,fig9": true} {
		o := runOptions(exhibits)
		o.wls = "gcc,compress"
		var out strings.Builder
		if err := run(o, &out, io.Discard); err != nil {
			t.Fatalf("-exhibits %s: %v", exhibits, err)
		}
		got := out.String()
		if strings.Contains(got, "Figure 9") || strings.Contains(got, "Table 1.") != wantTable1 || (got == "") == wantTable1 {
			t.Errorf("-exhibits %s printed:\n%s", exhibits, got)
		}
	}
}

// TestFig9WorkloadSubsetSkip is the regression test for the -workloads
// validation bug: the fig9 check used to read a shadowed Config whose
// Fig9Benchmarks came from suite defaults while the outer (pre-default)
// config was the one main kept using. The skip decision is now
// Suite.Fig9Available against the defaulted config.
func TestFig9WorkloadSubsetSkip(t *testing.T) {
	// A -workloads subset without perl: fig9 (gcc+perl by default) must
	// report unavailable.
	subset, err := experiments.NewSuite(experiments.Config{
		Length:    2_000,
		Workloads: []string{"gcc", "compress"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if subset.Fig9Available() {
		t.Error("fig9 reported available without perl in the suite")
	}
	if got := subset.Config().Fig9Benchmarks; len(got) != 2 {
		t.Errorf("defaulted Fig9Benchmarks = %v", got)
	}

	// With both default fig9 benchmarks present it must be available.
	full, err := experiments.NewSuite(experiments.Config{
		Length:    2_000,
		Workloads: []string{"gcc", "perl"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Fig9Available() {
		t.Error("fig9 reported unavailable with gcc and perl present")
	}
}
