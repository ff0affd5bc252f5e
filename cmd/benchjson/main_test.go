package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: branchcorr
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPackedTraceBuild/len=100000-8         	      10	   1831194 ns/op	  54646481 branches/s
BenchmarkOracleProfile/len=100000/impl=ref-8   	       5	  91258348 ns/op	   1095800 branches/s
BenchmarkOracleProfile/len=100000/impl=kernel-8         	      10	  44392924 ns/op	   2252660 branches/s
PASS
ok  	branchcorr	7.487s
`

func TestParse(t *testing.T) {
	benches, env, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benches))
	}
	b := benches[1]
	if b.Name != "OracleProfile/len=100000/impl=ref" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", b.Name)
	}
	if b.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", b.Iterations)
	}
	if b.Gomaxprocs != 8 {
		t.Errorf("gomaxprocs = %d, want 8 (recorded from the stripped suffix)", b.Gomaxprocs)
	}
	if b.Shards != 1 {
		t.Errorf("shards = %d, want 1 (default for rows without /shards=)", b.Shards)
	}
	if b.Metrics["ns/op"] != 91258348 {
		t.Errorf("ns/op = %v", b.Metrics["ns/op"])
	}
	if b.Metrics["branches/s"] != 1095800 {
		t.Errorf("branches/s = %v", b.Metrics["branches/s"])
	}
	if env.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("env cpu = %q", env.CPU)
	}
	if env.Gomaxprocs != 8 {
		t.Errorf("env gomaxprocs = %d, want 8", env.Gomaxprocs)
	}
}

func TestSpeedups(t *testing.T) {
	benches, _, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	sp := speedups(benches)
	if len(sp) != 1 {
		t.Fatalf("got %d speedup pairs, want 1 (unpaired benchmarks must be skipped)", len(sp))
	}
	s := sp[0]
	if s.Name != "OracleProfile/len=100000" {
		t.Errorf("name = %q", s.Name)
	}
	if s.RefNsPerOp != 91258348 || s.KernelNsPerOp != 44392924 {
		t.Errorf("pair = %v / %v", s.RefNsPerOp, s.KernelNsPerOp)
	}
	if s.Speedup < 2.05 || s.Speedup > 2.06 {
		t.Errorf("speedup = %v, want 2.06 (two-decimal rounding)", s.Speedup)
	}
}

const sweepSample = `BenchmarkSimSweep/grid=gshare-hist/len=1000000/impl=independent-8 	       3	 412345678 ns/op	  36000000 branches/s
BenchmarkSimSweep/grid=gshare-hist/len=1000000/impl=fused-8       	      50	  12345678 ns/op	1215000000 branches/s
BenchmarkSimSweep/grid=gshare-hist/len=1000000/impl=fused/shards=8-8 	      50	   2345678 ns/op	6400000000 branches/s
BenchmarkSimSweep/grid=pas-geom/len=100000/impl=fused-8           	      50	   2345678 ns/op	 512000000 branches/s
`

func TestSpeedupsSweepPairs(t *testing.T) {
	benches, _, err := parse(strings.NewReader(sweepSample))
	if err != nil {
		t.Fatal(err)
	}
	sp := speedups(benches)
	if len(sp) != 1 {
		t.Fatalf("got %d speedup pairs, want 1 (unpaired fused benchmarks must be skipped)", len(sp))
	}
	s := sp[0]
	if s.Name != "SimSweep/grid=gshare-hist/len=1000000" {
		t.Errorf("name = %q", s.Name)
	}
	if s.RefNsPerOp != 412345678 || s.KernelNsPerOp != 12345678 {
		t.Errorf("pair = %v / %v (independent must fill the ref slot, fused the kernel slot)",
			s.RefNsPerOp, s.KernelNsPerOp)
	}
	if s.Speedup < 33.3 || s.Speedup > 33.5 {
		t.Errorf("speedup = %v", s.Speedup)
	}
}

func TestSpeedupsFoldPairs(t *testing.T) {
	benches, _, err := parse(strings.NewReader(
		"BenchmarkEntropyCeilings/kind=local/len=200000/impl=ref-2 	 3	 90000000 ns/op\n" +
			"BenchmarkEntropyCeilings/kind=local/len=200000/impl=fold-2 	 3	 3000000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	sp := speedups(benches)
	if len(sp) != 1 || sp[0].Name != "EntropyCeilings/kind=local/len=200000" {
		t.Fatalf("speedups = %+v, want one ref/fold pair", sp)
	}
	if sp[0].RefNsPerOp != 90000000 || sp[0].KernelNsPerOp != 3000000 || sp[0].Speedup != 30 {
		t.Errorf("pair = %+v (fold must fill the kernel slot)", sp[0])
	}
}

func TestParseShards(t *testing.T) {
	benches, _, err := parse(strings.NewReader(sweepSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(benches))
	}
	sharded := benches[2]
	if sharded.Name != "SimSweep/grid=gshare-hist/len=1000000/impl=fused/shards=8" {
		t.Errorf("name = %q (only the GOMAXPROCS suffix is stripped, not /shards=)", sharded.Name)
	}
	if sharded.Shards != 8 {
		t.Errorf("shards = %d, want 8", sharded.Shards)
	}
	if sharded.Gomaxprocs != 8 {
		t.Errorf("gomaxprocs = %d, want 8", sharded.Gomaxprocs)
	}
	if benches[1].Shards != 1 {
		t.Errorf("unsharded fused row shards = %d, want 1", benches[1].Shards)
	}
}

func TestParseNoSuffixSingleCore(t *testing.T) {
	benches, env, err := parse(strings.NewReader(
		"BenchmarkSimSweep/grid=g/len=10/impl=fused/shards=2 	 1	 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if benches[0].Gomaxprocs != 1 || env.Gomaxprocs != 1 {
		t.Errorf("gomaxprocs = %d / env %d, want 1 (no suffix on a single-core run)",
			benches[0].Gomaxprocs, env.Gomaxprocs)
	}
	if benches[0].Shards != 2 {
		t.Errorf("shards = %d, want 2", benches[0].Shards)
	}
}

func TestParseEmpty(t *testing.T) {
	benches, _, err := parse(strings.NewReader("no benchmarks here\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 0 {
		t.Errorf("parsed %d benchmarks from noise", len(benches))
	}
}
