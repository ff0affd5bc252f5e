package main

import (
	"math"
	"sort"
	"sync"
)

// span is one timed call in a traced run. Spans of one serve request
// share Req; Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps a traced run's spans in memory. Spans are recorded by the
// benchmark around its own calls into each layer, never inside the
// program.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now()})
	return id
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	end := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// do runs f inside a span; on a nil tracer it just runs f.
func (t *tracer) do(name string, parent, req int, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.start(name, parent, req)
	f()
	t.end(id)
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// median returns the middle of the values (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j*(n+1)/4 in 1-based order, interpolated.
		pos := float64(j) * float64(n+1) / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		lo = min(max(lo, 1), n)
		hi := min(lo+1, n)
		return s[lo-1] + frac*(s[hi-1]-s[lo-1])
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
