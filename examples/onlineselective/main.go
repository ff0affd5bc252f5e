// Online correlation discovery: the paper's oracle (section 3.4) knows
// each branch's most important correlated branches in advance. This
// example runs core.OnlineSelective — a practical predictor that
// discovers them while executing — and shows how much of the oracle's
// headroom it recovers, per workload, alongside the refs it converged on
// for the hardest branch.
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
	fmt.Println("oracle vs online correlation selection (3-ref selective histories, window 16)")
	fmt.Printf("%-10s %9s %9s %9s %9s\n", "workload", "gshare", "online", "oracle", "recovered")
	for _, name := range []string{"compress", "gcc", "ijpeg", "perl"} {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tr := w.Generate(200_000)

		sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
		rs := sim.Simulate(tr, []bp.Predictor{bp.NewGshare(16), core.NewOnlineSelective(3, 16, 256)}, sim.Options{}).Results
		sel3 := core.NewSelectiveSweep("oracle-sel3", []core.SelectiveConfig{{Name: "oracle-sel3", Window: 16, Assign: sels.BySize[3]}})
		gshare, online := rs[0].Accuracy(), rs[1].Accuracy()
		oracle := sim.SimulateSweep(tr, sel3, sim.Options{}).Accuracy(0)
		recovered := "-"
		if oracle > gshare {
			recovered = fmt.Sprintf("%5.0f%%", 100*(online-gshare)/(oracle-gshare))
		}
		fmt.Printf("%-10s %8.2f%% %8.2f%% %8.2f%% %9s\n",
			name, 100*gshare, 100*online, 100*oracle, recovered)
	}

	fmt.Println()
	fmt.Println("reading the table: 'recovered' is how much of the oracle-over-gshare")
	fmt.Println("headroom the online version captured. Where a single strong correlation")
	fmt.Println("dominates (compress's dictionary-hit branch) online discovery recovers")
	fmt.Println("most of it; where the signal is spread across many weak candidates the")
	fmt.Println("discovery cost exceeds the 3-ref benefit and gshare's 16-outcome history")
	fmt.Println("is the better practical choice — the trade-off the paper predicts.")

	// Peek inside: what did the oracle pick for gcc's hardest branch?
	w, _ := workloads.ByName("gcc")
	tr := w.Generate(200_000)
	g := sim.Simulate(tr, []bp.Predictor{bp.NewGshare(16)}, sim.Options{}).Results[0]
	var worst trace.Addr
	worstMiss := -1
	pcs := make([]trace.Addr, 0, len(g.PerBranch))
	for pc := range g.PerBranch {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		b := g.PerBranch[pc]
		if m := b.Total - b.Correct; m > worstMiss {
			worst, worstMiss = pc, m
		}
	}
	sels := core.Oracle(tr, core.OracleOptions{OracleConfig: core.OracleConfig{WindowLen: 16}})
	fmt.Printf("\ngcc's hardest branch 0x%x: the oracle's 3-ref selective history is", uint32(worst))
	for _, ref := range sels.BySize[3][worst] {
		fmt.Printf(" %s", ref)
	}
	fmt.Println()
	fmt.Println("('occN' = the N+1-most-recent dynamic instance of that branch;")
	fmt.Println(" 'backN' = its instance N loop iterations ago — the tags of section 3.2)")
}
