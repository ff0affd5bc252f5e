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

// Summarize computes summary statistics for a trace from the per-site
// tallies its packed view keeps, in O(static sites): no pass over the
// records. A site's Backward bit is its first occurrence's.
func Summarize(t *Trace) *Stats {
	p := t.Packed()
	st := &Stats{
		Name:    t.Name(),
		Dynamic: p.Len(),
		Static:  len(p.addrs),
		Sites:   make(map[Addr]*SiteStats, len(p.addrs)),
	}
	sites := make([]SiteStats, len(p.addrs))
	for id, pc := range p.addrs {
		back := p.firstBack[id>>6]>>(uint(id)&63)&1 != 0
		sites[id] = SiteStats{PC: pc, Count: int(p.counts[id]), Taken: int(p.takenCounts[id]), Backward: back}
		st.Sites[pc] = &sites[id]
		st.Taken += sites[id].Taken
		if back {
			st.BackwardSites++
		}
	}
	return st
}
