package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/entropy"
	"branchcorr/internal/experiments"
	"branchcorr/internal/obs"
	"branchcorr/internal/runner"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// setupSamples is how many times a figure run builds the suite, so
// setup_s is a median even when a single report outlasts the run.
const setupSamples = 5

// newSuite is the figure workloads' set-up: trace generation, exactly as
// cmd/experiments does it at one worker and one sweep shard.
func newSuite(w workload, reg *obs.Registry) (*experiments.Suite, error) {
	return experiments.NewSuite(experiments.Config{Length: w.N, SweepShards: 1, Obs: reg}, nil)
}

// buildAndRender is the measured figure work: BuildReport then Render.
func buildAndRender(s *experiments.Suite, exhibits []string) (string, error) {
	rep, err := s.BuildReport(context.Background(), exhibits, runner.Options{Parallel: 1})
	if err != nil {
		return "", err
	}
	return rep.Render(), nil
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// checkReport is a figure run's correctness gate: the report bytes must
// hash to the recorded digest and the oracle must have run exactly as
// often as the exhibit set needs.
func checkReport(o *outcome, w workload, text string, reg *obs.Registry) {
	if got := digest(text); got != w.Digest {
		o.fail("%s: report digest %s, want %s", w.Name, got, w.Digest)
	}
	if got := reg.Counter("core.oracle.builds").Value(); got != w.Builds {
		o.fail("%s: %d oracle builds, want %d", w.Name, got, w.Builds)
	}
}

// measureReport sets up a fresh suite and regenerates the workload's
// report once, untraced, returning the set-up and report times. The
// report is checked outside the timed window.
func measureReport(w workload, o *outcome) (setup, wall float64, err error) {
	reg := obs.New()
	runtime.GC()
	t0 := now()
	suite, err := newSuite(w, reg)
	if err != nil {
		return 0, 0, err
	}
	setup = now() - t0
	runtime.GC()
	t1 := now()
	text, err := buildAndRender(suite, w.Exhibits)
	if err != nil {
		return 0, 0, err
	}
	wall = now() - t1
	o.attempted++
	checkReport(o, w, text, reg)
	return setup, wall, nil
}

func runFigures(w workload, opts runOpts) (*outcome, []span, error) {
	if opts.trace {
		return traceFigures(w)
	}
	o := newOutcome()
	var setups, walls []float64
	deadline := now() + opts.seconds
	for len(setups) < setupSamples-1 {
		runtime.GC()
		t0 := now()
		if _, err := newSuite(w, obs.New()); err != nil {
			return nil, nil, err
		}
		setups = append(setups, now()-t0)
	}
	o.speed = newSpeed()
	for len(walls) == 0 || now() < deadline {
		o.speed.sample(3)
		setup, wall, err := measureReport(w, o)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, setup)
		walls = append(walls, wall)
	}
	o.speed.sample(3)
	o.set("wall_s", median(walls), len(walls))
	o.set("setup_s", median(setups), len(setups))
	o.set("peak_rss_mb", peakRSSMB(), 1)
	// One operation of a figure workload is one regenerated report.
	o.set("throughput_rps", float64(len(walls))/sum(walls), len(walls))
	o.set("latency_p50_ms", 1000*median(walls), len(walls))
	o.set("latency_p99_ms", 1000*percentile(walls, 99), len(walls))
	return o, nil, nil
}

// layerWork tallies the records the benchmark's own layer calls pushed
// through each engine, for the per-second rates.
type layerWork struct {
	simRecords, oracleRecords int
}

// traceFigures is the traced figure run. It measures one untraced report
// for the overhead baseline, then calls each layer's public function
// itself on freshly generated traces (one span per call), and finally
// builds the report one exhibit at a time, then renders it.
func traceFigures(w workload) (*outcome, []span, error) {
	o := newOutcome()
	tr := &tracer{}
	exhibits := w.Exhibits
	if exhibits == nil {
		exhibits = exhibitNames
	}

	_, untraced, err := measureReport(w, o)
	if err != nil {
		return nil, nil, err
	}

	layers := tr.start("layers", 0, 0)
	lreg := obs.New() // the layer calls' own counters stay out of the report's
	var work layerWork
	for _, name := range workloads.Names() {
		wl, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		var t *trace.Trace
		tr.do("workloads.generate", layers, 0, func() { t = wl.Generate(w.N) })
		layerCalls(tr, layers, t, w.N, exhibits, lreg, &work)
	}
	tr.end(layers)
	runtime.GC()

	reg := obs.New()
	packs := obs.Default().Counter("trace.pack.builds").Value()
	suite, err := newSuite(w, reg)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	rep := tr.start("report", 0, 0)
	parts := make([]*experiments.Report, len(exhibits))
	for i, e := range exhibits {
		tr.do("experiments.exhibit."+e, rep, 0, func() {
			parts[i], err = suite.BuildReport(context.Background(), []string{e}, runner.Options{Parallel: 1})
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var text strings.Builder
	tr.do("experiments.render", rep, 0, func() {
		for _, p := range parts {
			text.WriteString(p.Render())
		}
	})
	tr.end(rep)
	o.attempted++
	checkReport(o, w, text.String(), reg)
	packs = obs.Default().Counter("trace.pack.builds").Value() - packs

	snap := reg.Snapshot()
	setLayerMetrics(o, tr, work, snap)
	o.set("trace.pack_builds", float64(packs), 1)
	o.set("corpus.misses", float64(snap.Counters["corpus.misses"]), 1)
	for _, e := range exhibitNames {
		o.set("experiments.exhibit_s."+e, tr.total("experiments.exhibit."+e), len(tr.durations("experiments.exhibit."+e)))
	}
	o.set("experiments.render_s", tr.total("experiments.render"), 1)
	o.set("experiments.memo_hit_ratio", memoHitRatio(snap), 1)
	for _, name := range []string{"api.decode_ms_p50", "api.marshal_ms_p50", "api.bytes_per_request",
		"service.handler_ms_p50", "service.handler_ms_p99", "service.http_ms_p50",
		"service.engine_share", "service.cache_hit_ratio", "service.queue_max", "corpus.put_s"} {
		o.set(name, 0, 0)
	}
	report := tr.spans[rep-1].dur()
	o.set("bench.trace_overhead_frac", (report-untraced)/untraced, 2)
	attributed := tr.total("experiments.render")
	for _, s := range tr.spans {
		if s.Parent == layers && s.Name != "workloads.generate" {
			attributed += s.dur()
		}
	}
	o.set("bench.unattributed_frac", 1-attributed/report, 1)
	return o, tr.spans, nil
}

// layerCalls repeats, on one trace, the engine calls the exhibit set
// makes, with the same arguments and in the same order as the report
// cells, each inside its own span.
func layerCalls(tr *tracer, parent int, t *trace.Trace, n int, exhibits []string, reg *obs.Registry, work *layerWork) {
	has := func(names ...string) bool {
		for _, e := range names {
			if slices.Contains(exhibits, e) {
				return true
			}
		}
		return false
	}
	simulate := func(bucket int, preds ...bp.Predictor) {
		tr.do("sim.simulate", parent, 0, func() {
			sim.Simulate(t, preds, sim.Options{BucketSize: bucket, Observer: reg})
		})
		work.simRecords += len(preds) * t.Len()
	}
	sweep := func(grid bp.SweepGrid) {
		tr.do("sim.sweep", parent, 0, func() {
			sim.SimulateSweep(t, grid, sim.Options{Parallel: 1, Observer: reg})
		})
	}
	gshare := func() bp.Predictor { return bp.NewGshare(16) }
	pas := func() bp.Predictor { return bp.NewPAs(12, 10, 6) }

	tr.do("trace.pack", parent, 0, func() { t.Packed() })

	if has("fig4", "fig5", "table2", "fig8", "inpath") {
		windows := []int{16}
		if has("fig5") {
			windows = []int{8, 12, 16, 20, 24, 28, 32}
		}
		var sels16 *core.Selections
		var fig5 []core.SelectiveConfig
		for _, win := range windows {
			cfg := core.OracleConfig{WindowLen: win, Obs: reg}
			var prof, sel *core.Selections
			tr.do("core.oracle.profile", parent, 0, func() {
				prof = core.Oracle(t, core.OracleOptions{OracleConfig: cfg, Stage: core.StageProfile})
			})
			tr.do("core.oracle.select", parent, 0, func() {
				sel = core.Oracle(t, core.OracleOptions{OracleConfig: cfg, Stage: core.StageSelect, Candidates: prof.Candidates})
			})
			work.oracleRecords += t.Len()
			if win == 16 {
				sels16 = sel
			}
			fig5 = append(fig5, core.SelectiveConfig{Name: fmt.Sprintf("IF 3-branch selective(%d)", win), Window: win, Assign: sel.BySize[3]})
		}
		var fig4 []core.SelectiveConfig
		var selective []bp.Predictor
		for k := 1; k <= core.MaxSelectiveRefs; k++ {
			name := fmt.Sprintf("IF %d-branch selective(16)", k)
			fig4 = append(fig4, core.SelectiveConfig{Name: name, Window: 16, Assign: sels16.BySize[k]})
			selective = append(selective, core.NewSelective(name, 16, sels16.BySize[k]))
		}
		if has("fig4") {
			sweep(bp.NewConcatSweep("fig4-global-correlation",
				core.NewSelectiveSweep("fig4-selective", fig4),
				bp.NewIFGshareSweep([]uint{16}), bp.NewGshareSweep([]uint{16})))
		}
		if has("fig5") {
			sweep(core.NewSelectiveSweep("fig5-selective-windows", fig5))
		}
		if has("table2", "fig8", "inpath") {
			simulate(0, selective...)
			simulate(0, bp.NewIFGshare(16), gshare())
		}
		if has("inpath") {
			simulate(0, core.NewSelectiveMode("presence-sel3", 16, sels16.BySize[3], core.ModePresence))
		}
	}
	if has("table3", "fig7", "fig8", "fig9", "hybrids", "inpath") {
		simulate(0, bp.NewIdealStatic(trace.Summarize(t)), gshare(), pas())
	}
	if has("fig6", "table3", "fig8") {
		tr.do("core.classify", parent, 0, func() {
			core.ClassifyPerAddress(t, core.ClassifyConfig{IFPAsHistoryBits: 16, Obs: reg})
		})
	}
	if has("ceiling") {
		tr.do("entropy.ceilings", parent, 0, func() {
			entropy.LocalCeilings(t, 12)
			entropy.GlobalCeilings(t, 12)
		})
		simulate(0, bp.NewIFPAs(12), bp.NewIFGshare(12))
	}
	if has("hybrids") {
		simulate(0, bp.NewHybrid(gshare(), pas(), 12), bp.NewTournament(12, 10, 16, 12))
	}
	if has("training") {
		simulate(max(n/20, 1000), gshare(), bp.NewIFGshare(16), bp.NewBimodal(14))
	}
	if has("sweeps") {
		sweep(bp.NewGshareSweep([]uint{8, 10, 12, 14, 16, 18, 20, 22}))
	}
}

// setLayerMetrics fills the engine-layer metrics every traced run
// reports: times from the benchmark's spans, counts from the program's
// own counters.
func setLayerMetrics(o *outcome, tr *tracer, work layerWork, snap obs.Snapshot) {
	c := snap.Counters
	count := func(name string) float64 { return float64(c[name]) }
	rate := func(records int, secs float64) float64 {
		if secs == 0 {
			return 0
		}
		return float64(records) / secs
	}
	share := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	spanned := func(name, span string) {
		o.set(name, tr.total(span), len(tr.durations(span)))
	}
	spanned("workloads.generate_s", "workloads.generate")
	spanned("trace.pack_s", "trace.pack")
	spanned("core.oracle_profile_s", "core.oracle.profile")
	spanned("core.oracle_select_s", "core.oracle.select")
	spanned("core.classify_s", "core.classify")
	spanned("entropy.ceilings_s", "entropy.ceilings")
	spanned("sim.simulate_s", "sim.simulate")
	spanned("sim.sweep_s", "sim.sweep")
	oracle := tr.total("core.oracle.profile") + tr.total("core.oracle.select")
	o.set("core.oracle_records_per_s", rate(work.oracleRecords, oracle), len(tr.durations("core.oracle.select")))
	o.set("sim.records_per_s", rate(work.simRecords, tr.total("sim.simulate")), len(tr.durations("sim.simulate")))
	o.set("core.oracle_builds", count("core.oracle.builds"), 1)
	o.set("core.oracle_candidates", count("core.oracle.candidates"), 1)
	o.set("core.oracle_prune_events", count("core.oracle.prune.events"), 1)
	o.set("sim.records", count("sim.records"), 1)
	o.set("sim.fastpath_share", share(count("sim.runs.fastpath"), count("sim.runs.reference")), 1)
	o.set("sim.sweep_predictions", count("sim.sweep.predictions"), 1)
	o.set("sim.sweep_fused_share", share(count("sim.sweep.runs.fused"), count("sim.sweep.runs.fallback")), 1)
}

// memoHitRatio is the share of the suite's memoized-artifact lookups that
// found the artifact already computed.
func memoHitRatio(snap obs.Snapshot) float64 {
	var calls, misses int64
	for _, m := range []string{"sels", "global", "classes", "base"} {
		calls += snap.Counters["suite.memo."+m+".calls"]
		misses += snap.Counters["suite.memo."+m+".misses"]
	}
	if calls == 0 {
		return 0
	}
	return float64(calls-misses) / float64(calls)
}
