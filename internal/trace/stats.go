package trace

import "sort"

// SiteStats summarizes one static branch site within a trace.
type SiteStats struct {
	PC       Addr
	Count    int  // dynamic executions
	Taken    int  // taken executions
	Backward bool // static backward bit (from first occurrence)
}

// NotTaken returns the number of not-taken executions.
func (s SiteStats) NotTaken() int { return s.Count - s.Taken }

// Bias returns the fraction of executions in the predominant direction,
// in [0.5, 1] (1 for a single-execution site).
func (s SiteStats) Bias() float64 {
	if s.Count == 0 {
		return 0
	}
	maj := s.Taken
	if nt := s.Count - s.Taken; nt > maj {
		maj = nt
	}
	return float64(maj) / float64(s.Count)
}

// MajorityTaken reports the predominant direction (ties predict taken,
// matching the ideal-static predictor's convention).
func (s SiteStats) MajorityTaken() bool { return s.Taken*2 >= s.Count }

// Stats summarizes a whole trace.
type Stats struct {
	Name          string
	Dynamic       int // dynamic conditional branches
	Static        int // distinct static sites
	Taken         int // dynamic taken branches
	BackwardSites int // static sites marked backward
	Sites         map[Addr]*SiteStats
}

// TakenRate returns the fraction of dynamic branches that were taken.
func (s *Stats) TakenRate() float64 {
	if s.Dynamic == 0 {
		return 0
	}
	return float64(s.Taken) / float64(s.Dynamic)
}

// BiasedFraction returns the fraction of *dynamic* branches belonging to
// static sites whose bias is at least threshold. The paper reports, e.g.,
// the share of statically-best-predicted branches that are >99% biased.
func (s *Stats) BiasedFraction(threshold float64) float64 {
	if s.Dynamic == 0 {
		return 0
	}
	n := 0
	for _, site := range s.Sites {
		if site.Bias() >= threshold {
			n += site.Count
		}
	}
	return float64(n) / float64(s.Dynamic)
}

// SortedSites returns the per-site stats ordered by address, for stable
// iteration and reporting.
func (s *Stats) SortedSites() []*SiteStats {
	out := make([]*SiteStats, 0, len(s.Sites))
	for _, site := range s.Sites {
		out = append(out, site)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// Summarize computes summary statistics for a trace in one pass over
// its memoized packed view: per-site counts are tallied into slices
// indexed by dense branch ID, and Sites gets one entry per static
// branch. A site's Backward bit is its first occurrence's; IDs are dense
// in first-appearance order, so a record whose ID is the next unseen one
// is that site's first occurrence.
func Summarize(t *Trace) *Stats {
	p := t.Packed()
	counts, addrs := p.Counts(), p.Addrs()
	takenWords := p.TakenWords()
	taken := make([]int32, len(addrs))
	back := make([]bool, len(addrs))
	seen := int32(0)
	for i, id := range p.IDs() {
		taken[id] += int32(takenWords[i>>6] >> (uint(i) & 63) & 1)
		if id == seen {
			back[id] = p.Backward(i)
			seen++
		}
	}
	st := &Stats{
		Name:    t.Name(),
		Dynamic: p.Len(),
		Static:  len(addrs),
		Sites:   make(map[Addr]*SiteStats, len(addrs)),
	}
	sites := make([]SiteStats, len(addrs))
	for id, pc := range addrs {
		sites[id] = SiteStats{PC: pc, Count: int(counts[id]), Taken: int(taken[id]), Backward: back[id]}
		st.Sites[pc] = &sites[id]
		st.Taken += sites[id].Taken
		if back[id] {
			st.BackwardSites++
		}
	}
	return st
}
