// Correlation analysis: use the paper's oracle machinery to find, for the
// hardest branches of a workload, WHICH earlier branches their outcomes
// correlate with — the section 3 methodology applied as a tool.
//
// For each of the most-mispredicted branches under gshare, the program
// prints the oracle-selected 1-, 2- and 3-branch selective histories and
// the accuracy each achieves, showing how much of the branch's
// misprediction rate is recoverable correlation.
package main

import (
	"fmt"
	"log"
	"sort"

	"branchcorr/internal/bp"
	"branchcorr/internal/core"
	"branchcorr/internal/sim"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

func main() {
	w, err := workloads.ByName("gcc")
	if err != nil {
		log.Fatal(err)
	}
	tr := w.Generate(300_000)

	// Baseline: which branches does gshare struggle with?
	gshare := sim.Simulate(tr, []bp.Predictor{bp.NewGshare(16)}, sim.Options{}).Results[0]
	type hard struct {
		pc     trace.Addr
		misses int
	}
	var hardest []hard
	for pc, b := range gshare.PerBranch {
		hardest = append(hardest, hard{pc, b.Total - b.Correct})
	}
	sort.Slice(hardest, func(i, j int) bool {
		if hardest[i].misses != hardest[j].misses {
			return hardest[i].misses > hardest[j].misses
		}
		return hardest[i].pc < hardest[j].pc
	})

	// Oracle: profile candidates and select the most important
	// correlated branches for every static branch (window of 16 prior
	// branches, both tagging schemes).
	ocfg := core.OracleConfig{WindowLen: 16}
	sels := core.Oracle(tr, core.OracleOptions{OracleConfig: ocfg})

	// Simulate the selective predictors the selections define: one
	// fused sweep over the three, counted per branch.
	var cfgs []core.SelectiveConfig
	for k := 1; k <= core.MaxSelectiveRefs; k++ {
		cfgs = append(cfgs, core.SelectiveConfig{Name: fmt.Sprintf("sel%d", k), Window: 16, Assign: sels.BySize[k]})
	}
	rs := sim.SimulateSweep(tr, core.NewSelectiveSweep("selective", cfgs), sim.Options{PerBranch: true}).Results

	fmt.Println("hardest gcc branches under gshare(16), and their oracle-selected correlations:")
	for _, h := range hardest[:5] {
		fmt.Printf("\nbranch 0x%x: gshare accuracy %.2f%% (%d misses)\n",
			uint32(h.pc), 100*gshare.Branch(h.pc).Accuracy(), h.misses)
		for k := 1; k <= core.MaxSelectiveRefs; k++ {
			refList := ""
			for i, ref := range sels.BySize[k][h.pc] {
				if i > 0 {
					refList += " "
				}
				refList += ref.String()
			}
			acc := rs[k-1].Branch(h.pc).Accuracy()
			fmt.Printf("  %d-branch selective history [%-48s] -> %.2f%%\n",
				k, refList, 100*acc)
		}
	}

	fmt.Println("\nreading a ref: 0x2000034/occ0 = the most recent dynamic instance of the")
	fmt.Println("branch at 0x2000034; .../back1 = its instance one loop iteration ago.")
}
