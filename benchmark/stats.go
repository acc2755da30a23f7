package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// samples; 0 on an empty set. The slice is sorted in place.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return samples[rank]
}

func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// promHistogram is one histogram family parsed from /metrics text:
// cumulative bucket counts by upper bound in seconds (+Inf last).
type promHistogram struct {
	bounds []float64
	counts []float64
	count  float64
}

// parsePromHistogram extracts the named family from a Prometheus text
// exposition.
func parsePromHistogram(text, name string) promHistogram {
	var h promHistogram
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		i := strings.LastIndexByte(rest, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(rest[i+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(rest, "_bucket{le=\""):
			le := rest[len("_bucket{le=\""):strings.Index(rest, "\"}")]
			b := math.Inf(1)
			if le != "+Inf" {
				if b, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			h.bounds = append(h.bounds, b)
			h.counts = append(h.counts, v)
		case strings.HasPrefix(rest, "_count "):
			h.count = v
		}
	}
	return h
}

// sub returns the observations h gained since base (same family,
// earlier scrape).
func (h promHistogram) sub(base promHistogram) promHistogram {
	if len(base.counts) != len(h.counts) {
		return h
	}
	out := promHistogram{bounds: h.bounds, count: h.count - base.count}
	for i := range h.counts {
		out.counts = append(out.counts, h.counts[i]-base.counts[i])
	}
	return out
}

// quantile interpolates linearly inside the bucket holding rank q, the
// way the server's own Histogram.Quantile does. Result in seconds.
func (h promHistogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	lo := 0.0
	var below float64
	for i, cum := range h.counts {
		if cum >= rank {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			in := cum - below
			if in == 0 {
				return hi
			}
			return lo + (rank-below)/in*(hi-lo)
		}
		lo, below = h.bounds[i], cum
	}
	return lo
}

// --- spans -------------------------------------------------------------------

// span is one traced interval: a call into a layer, made by the
// harness, on behalf of op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (the union of their
// intervals, clipped to the parent — children may overlap each other
// when the dataflow scheduler runs instructions in parallel).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := c.Start, c.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}
