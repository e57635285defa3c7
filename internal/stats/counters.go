package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Ratio is a hit/total style pair with a convenience rate.
type Ratio struct {
	Hits  uint64
	Total uint64
}

// Observe records one event that either hit or missed.
func (r *Ratio) Observe(hit bool) {
	r.Total++
	if hit {
		r.Hits++
	}
}

// AddMisses records n misses (n totals, no hits).
func (r *Ratio) AddMisses(n uint64) { r.Total += n }

// Rate returns Hits/Total, or 0 when empty.
func (r *Ratio) Rate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Total)
}

// Set is an ordered collection of named counters, used for stats dumps.
type Set struct {
	names  []string
	values map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{values: make(map[string]*Counter)}
}

// Get returns the counter with the given name, creating it on first use.
func (s *Set) Get(name string) *Counter {
	if c, ok := s.values[name]; ok {
		return c
	}
	c := &Counter{}
	s.values[name] = c
	s.names = append(s.names, name)
	return c
}

// Value returns the count for name, or zero when never touched.
func (s *Set) Value(name string) uint64 {
	if c, ok := s.values[name]; ok {
		return c.Value()
	}
	return 0
}

// Names returns the counter names in first-use order.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// String renders the set sorted by name, one "name=value" per line.
func (s *Set) String() string {
	names := s.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, s.values[n].Value())
	}
	return b.String()
}

// Histogram is a fixed-bucket histogram over non-negative integer samples.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; implicit +Inf last bucket
	counts []uint64
	sum    uint64
	n      uint64
	max    uint64
}

// NewHistogram returns a histogram with the given ascending bucket upper
// bounds. A sample x lands in the first bucket with x <= bound, or in the
// overflow bucket.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(x uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return x <= h.bounds[i] })
	h.counts[i]++
	h.sum += x
	h.n++
	if x > h.max {
		h.max = x
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the sample mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observed sample.
func (h *Histogram) Max() uint64 { return h.max }

// Buckets returns (upperBound, count) pairs; the final pair has bound
// ^uint64(0) for the overflow bucket.
func (h *Histogram) Buckets() ([]uint64, []uint64) {
	bounds := append(append([]uint64(nil), h.bounds...), ^uint64(0))
	counts := append([]uint64(nil), h.counts...)
	return bounds, counts
}

// Quantile returns an upper-bound estimate of the q-quantile (0<=q<=1)
// using bucket upper bounds. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}
