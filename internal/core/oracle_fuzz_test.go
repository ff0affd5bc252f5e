package core

import (
	"fmt"
	"testing"

	"branchcorr/internal/obs"
	"branchcorr/internal/trace"
)

// fuzzOracleWindows are the window sets FuzzOracleStates picks from by
// its input's second byte: one window, several, and windows longer than
// the trace's loops.
var fuzzOracleWindows = [][]int{{4}, {2, 5, 8}, {4, 8, 12, 16}, {1, 3, 16, 24}}

// fuzzOracleTrace turns fuzz bytes into a trace of at most 4096 records
// over at most 64 sites. Byte 0 sets the site count, byte 2 the
// backward sites (site s is backward when bit s%8 is set). Each later
// byte b adds records: with its top bit set, a loop — site b&63 runs
// 1..8 iterations (the next byte's low bits), taken on all but the last
// — and otherwise one record of site b&63 whose direction is bit 6.
func fuzzOracleTrace(data []byte) *trace.Trace {
	tr := trace.New("fuzz", 0)
	if len(data) < 3 {
		return tr
	}
	sites := 1 + int(data[0])%64
	back := data[2]
	site := func(b byte) (trace.Addr, bool) {
		s := int(b&63) % sites
		return trace.Addr(0x1000 + 4*s), back>>(s%8)&1 != 0
	}
	for k := 3; k < len(data) && tr.Len() < 4096; k++ {
		b := data[k]
		pc, bk := site(b)
		if b&0x80 == 0 {
			tr.Append(trace.Record{PC: pc, Taken: b&0x40 != 0, Backward: bk})
			continue
		}
		iters := 1
		if k+1 < len(data) {
			k++
			iters += int(data[k] & 7)
		}
		for it := 0; it < iters && tr.Len() < 4096; it++ {
			tr.Append(trace.Record{PC: pc, Taken: it < iters-1, Backward: bk})
		}
	}
	return tr
}

// FuzzOracleStates checks the branch-major oracle against the reference
// on traces drawn from the fuzz bytes (fuzzOracleTrace): OracleStates
// over one classification at the largest window must return, at every
// window, ReferenceSelectRefs over ReferenceProfileCandidates, and
// StageProfile must return ReferenceProfileCandidates — at
// ScoreParallel 1 and 3, TopK 1, 4 and 16, and a MaxCandidates of 4,
// which makes watermark prunes, reruns and window fallbacks fire, as
// well as the default.
func FuzzOracleStates(f *testing.F) {
	f.Add([]byte{5, 1, 0x21, 0x80, 3, 0x41, 0x02, 0x80, 5, 0x43, 0x01, 0x44})
	f.Add([]byte{63, 2, 0xff, 0x10, 0x51, 0x92, 7, 0x23, 0x64, 0xa5, 2, 0x06, 0x47, 0x88})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzOracleTrace(data)
		windows := fuzzOracleWindows[0]
		if len(data) > 1 {
			windows = fuzzOracleWindows[int(data[1])%len(fuzzOracleWindows)]
		}
		pc := ClassifyPaths(tr, windows[len(windows)-1], obs.New())
		for _, maxCand := range []int{4, 0} {
			for _, topK := range []int{1, 4, 16} {
				want := make([]*Selections, len(windows))
				cands := make([]map[trace.Addr]*Candidates, len(windows))
				for w, n := range windows {
					cfg := OracleConfig{WindowLen: n, TopK: topK, MaxCandidates: maxCand}
					cands[w] = ReferenceProfileCandidates(tr, cfg)
					want[w] = ReferenceSelectRefs(tr, cands[w], cfg)
				}
				for _, par := range []int{1, 3} {
					cfg := OracleConfig{TopK: topK, MaxCandidates: maxCand, ScoreParallel: par, Obs: obs.New()}
					got, _ := OracleStates(pc, windows, nil, cfg)
					for w, n := range windows {
						t.Run(fmt.Sprintf("max=%d/topk=%d/par=%d/w=%d", maxCand, topK, par, n), func(t *testing.T) {
							mustEqualSelections(t, got[w], want[w])
							cfg.WindowLen = n
							mustEqualCandidates(t, Oracle(pc, OracleOptions{OracleConfig: cfg, Stage: StageProfile}).Candidates, cands[w])
						})
					}
				}
			}
		}
	})
}
