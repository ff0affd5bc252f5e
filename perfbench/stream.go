package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/bp"
)

// request is one generated serve request. The server sees only path and
// body; the rest is the benchmark's bookkeeping.
type request struct {
	kind  string // simulate, sweep, oracle or classify
	trace string // workload name the request's trace ref names
	body  []byte
	// check puts the request in the seeded sample whose responses are
	// verified against direct engine calls.
	check bool
}

func (r request) path() string { return v1.PathPrefix + "/" + r.kind }

// rng is splitmix64: a tiny seeded generator, so streams depend on the
// seed alone.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 1} }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (g *rng) intn(n int) int { return int(g.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (g *rng) between(lo, hi int) int { return lo + g.intn(hi-lo+1) }

func (g *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, g.intn(i+1))
	}
}

// subset draws k distinct values from [lo, hi], sorted.
func (g *rng) subset(k, lo, hi int) []uint {
	seen := map[int]bool{}
	var out []uint
	for len(out) < k {
		v := g.between(lo, hi)
		if !seen[v] {
			seen[v] = true
			out = append(out, uint(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the benchmark's own request structs reach here
	}
	return b
}

// coldMix is the fixed composition of every block of 100 cold requests;
// the seed picks parameters and order, never the proportions, so the
// stream costs about the same under every seed.
var coldMix = []struct {
	kind  string
	count int
}{
	{"simulate", 70},
	{"sweep/gshare-hist", 6},
	{"sweep/bimodal-size", 6},
	{"sweep/if-gshare", 4},
	{"sweep/hybrid", 4},
	{"classify", 7},
	{"oracle", 3},
}

// checksPerBlock is how many requests of every block of 100 are verified
// against direct engine calls.
const checksPerBlock = 4

// coldStream returns length requests (rounded up to whole blocks) whose
// canonical cache keys are all distinct, so every one is a cache miss on
// a fresh server. What sets a request's cost — its kind, trace,
// predictor families, options and grid family — follows a fixed
// schedule; the seed draws only the order within each block and
// parameter values from narrow ranges, so the stream costs about the
// same under every seed.
func coldStream(seed int64, n, length int) ([]request, error) {
	g := newRNG(seed)
	seen := map[string]bool{}
	scheduled := map[string]int{} // requests of each kind so far
	var out []request
	for len(out) < length {
		var block []string
		for _, m := range coldMix {
			for i := 0; i < m.count; i++ {
				block = append(block, m.kind)
			}
		}
		g.shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		checks := map[int]bool{}
		for len(checks) < checksPerBlock {
			checks[g.intn(len(block))] = true
		}
		for i, kind := range block {
			slot := scheduled[kind]
			scheduled[kind]++
			var r request
			for attempt := 0; ; attempt++ {
				if attempt == 1000 {
					return nil, fmt.Errorf("cold stream: no fresh %s request after 1000 draws", kind)
				}
				var key string
				var err error
				r, key, err = coldRequest(g, kind, slot, n)
				if err != nil {
					return nil, err
				}
				if !seen[key] {
					seen[key] = true
					break
				}
			}
			r.check = checks[i]
			out = append(out, r)
		}
	}
	return out, nil
}

// coldRequest draws the slot-th request of the given kind and returns it
// with its canonical key (equal keys mean the server would share a cache
// entry). The slot picks the trace and, for simulate, the predictor
// families and options.
func coldRequest(g *rng, kind string, slot, n int) (request, string, error) {
	name := serveTraces[slot%len(serveTraces)]
	ref := v1.TraceRef{Workload: name, N: n}
	family, _ := strings.CutPrefix(kind, "sweep/")
	switch kind {
	case "simulate":
		pool := []func() string{
			func() string { return fmt.Sprintf("gshare:%d", g.between(10, 16)) },
			func() string { return fmt.Sprintf("bimodal:%d", g.between(10, 14)) },
			func() string { return fmt.Sprintf("gas:%d,%d", g.between(8, 12), g.between(2, 4)) },
			func() string { return fmt.Sprintf("pas:%d,%d,%d", g.between(8, 12), g.between(8, 10), g.between(4, 6)) },
			func() string { return fmt.Sprintf("ifgshare:%d", g.between(10, 14)) },
		}
		opt := slot / len(serveTraces) % 4
		req := v1.SimulateRequest{Trace: ref, PerBranch: opt == 1}
		if opt == 2 {
			req.BucketSize = 10_000
		}
		pair := slot / (4 * len(serveTraces))
		var names []string
		for _, f := range []int{pair % len(pool), pair / len(pool) % len(pool)} {
			spec := pool[f]()
			p, err := bp.Parse(spec, bp.Env{})
			if err != nil {
				return request{}, "", err
			}
			req.Specs = append(req.Specs, spec)
			names = append(names, p.Name())
		}
		key := fmt.Sprintf("simulate|%s|%d|%t|%s", name, req.BucketSize, req.PerBranch, strings.Join(names, ","))
		return request{kind: "simulate", trace: name, body: mustJSON(req)}, key, nil
	case "sweep/gshare-hist", "sweep/bimodal-size", "sweep/if-gshare", "sweep/hybrid":
		grid := v1.GridSpec{Family: family}
		switch family {
		case "gshare-hist":
			grid.Hist = g.subset(4, 8, 20)
		case "bimodal-size":
			grid.Table = g.subset(4, 8, 16)
		case "if-gshare":
			grid.Hist = g.subset(3, 8, 16)
		case "hybrid":
			grid.Hist = g.subset(3, 10, 16)
		}
		key := fmt.Sprintf("sweep|%s|%s|%v|%v", name, family, grid.Hist, grid.Table)
		return request{kind: "sweep", trace: name, body: mustJSON(v1.SweepRequest{Trace: ref, Grid: grid})}, key, nil
	case "classify":
		bits := uint(14 + slot/len(serveTraces)%3)
		req := v1.ClassifyRequest{Trace: ref, IFPAsHistoryBits: bits, HighBias: 0.9 + float64(g.intn(990))/10_000}
		key := fmt.Sprintf("classify|%s|%d|%g", name, req.IFPAsHistoryBits, req.HighBias)
		return request{kind: "classify", trace: name, body: mustJSON(req)}, key, nil
	case "oracle":
		req := v1.OracleRequest{Trace: ref, Stage: "full", WindowLen: 16, TopK: g.between(12, 20), MaxCandidates: g.between(1024, 4095)}
		key := fmt.Sprintf("oracle|%s|%d|%d", name, req.TopK, req.MaxCandidates)
		return request{kind: "oracle", trace: name, body: mustJSON(req)}, key, nil
	}
	return request{}, "", fmt.Errorf("unknown request kind %q", kind)
}

// warmEntry is one primed request with its equivalent spellings; the
// first spelling primes the cache, the replay draws any of them.
type warmEntry struct {
	kind, trace string
	spellings   [][]byte
}

// warmSet is the fixed primed request set: per trace, simulate, sweep
// and classify requests, each with spellings that canonicalize to one
// cache key (zero-padded numbers, padded spec names, defaults spelled
// out or left to the server).
func warmSet(n int) []warmEntry {
	var set []warmEntry
	for _, name := range serveTraces {
		ref := v1.TraceRef{Workload: name, N: n}
		sim := func(specs ...[]string) warmEntry {
			e := warmEntry{kind: "simulate", trace: name}
			for _, s := range specs {
				e.spellings = append(e.spellings, mustJSON(v1.SimulateRequest{Trace: ref, Specs: s}))
			}
			return e
		}
		sweep := func(grids ...v1.GridSpec) warmEntry {
			e := warmEntry{kind: "sweep", trace: name}
			for _, grid := range grids {
				e.spellings = append(e.spellings, mustJSON(v1.SweepRequest{Trace: ref, Grid: grid}))
			}
			return e
		}
		set = append(set,
			sim([]string{"gshare:10", "bimodal:12"}, []string{"gshare:010", "bimodal:12"}, []string{" gshare:10", "bimodal:012"}),
			sim([]string{"gshare:14"}, []string{"gshare:014"}),
			sim([]string{"pas:12,10,6"}, []string{"pas:12, 10, 6"}, []string{"pas:012,10,06"}),
			sim([]string{"gas:10,4", "ifgshare:12"}, []string{"gas:10,04", "ifgshare:012"}),
			sim([]string{"bimodal:14", "gshare:16"}, []string{"bimodal:014", "gshare:16"}),
			sim([]string{"ifpas:12"}, []string{"ifpas:012"}),
			sweep(v1.GridSpec{Family: "gshare-hist", Hist: []uint{8, 12, 16}}),
			sweep(v1.GridSpec{Family: "bimodal-size", Table: []uint{10, 12, 14}}),
			sweep(v1.GridSpec{Family: "hybrid", Hist: []uint{12, 14}},
				v1.GridSpec{Family: "hybrid", Hist: []uint{12, 14}, BimodalBits: 12, ChooserBits: 12}),
			warmEntry{kind: "classify", trace: name, spellings: [][]byte{
				mustJSON(v1.ClassifyRequest{Trace: ref}),
				mustJSON(v1.ClassifyRequest{Trace: ref, IFPAsHistoryBits: 16, HighBias: 0.99}),
			}},
		)
	}
	return set
}

// warmStream draws length requests from the set in seeded order and
// spelling. Every entry is verified once against direct engine calls.
func warmStream(seed int64, set []warmEntry, length int) []request {
	g := newRNG(seed)
	out := make([]request, length)
	checked := map[int]bool{}
	for i := range out {
		k := g.intn(len(set))
		e := set[k]
		out[i] = request{kind: e.kind, trace: e.trace, body: e.spellings[g.intn(len(e.spellings))], check: !checked[k]}
		checked[k] = true
	}
	return out
}

// primeRequests are the requests that fill the cache during a warm
// server's set-up: each entry's first spelling, once.
func primeRequests(set []warmEntry) []request {
	out := make([]request, len(set))
	for i, e := range set {
		out[i] = request{kind: e.kind, trace: e.trace, body: e.spellings[0]}
	}
	return out
}
