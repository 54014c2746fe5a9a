package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotone event count.
type Counter struct {
	name, help string
	v          uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Histogram is a fixed-bucket histogram of uint64 observations. Bounds are
// inclusive upper bucket edges; one implicit overflow bucket catches the
// rest.
type Histogram struct {
	bounds     []uint64
	counts     []uint64 // len(bounds)+1
	count, sum uint64
}

// NewHistogram returns a histogram with the given inclusive upper bucket
// edges.
func NewHistogram(bounds []uint64) *Histogram {
	return &Histogram{
		bounds: append([]uint64{}, bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveN records n observations of value v in one call — for
// reconstructing a distribution from pre-bucketed counts, such as a
// guest-side histogram peeled out of simulated memory.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	h.count += n
	h.sum += v * n
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i] += n
			return
		}
	}
	h.counts[len(h.bounds)] += n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Quantile returns an upper bound on the q-quantile observation for
// 0 ≤ q ≤ 1: the smallest bucket edge at which the cumulative count
// reaches ⌈q·count⌉. When the quantile falls in the overflow bucket the
// result saturates at the largest configured edge (the histogram cannot
// bound it more tightly). Returns 0 before the first observation.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var run uint64
	for i, c := range h.counts {
		run += c
		if run >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// P50 returns the median's bucket edge.
func (h *Histogram) P50() uint64 { return h.Quantile(0.50) }

// P95 returns the 95th-percentile bucket edge.
func (h *Histogram) P95() uint64 { return h.Quantile(0.95) }

// P99 returns the 99th-percentile bucket edge.
func (h *Histogram) P99() uint64 { return h.Quantile(0.99) }

// Buckets returns (upper-bound, cumulative-count) pairs, the overflow
// bucket last with bound ^uint64(0).
func (h *Histogram) Buckets() ([]uint64, []uint64) {
	bounds := append(append([]uint64{}, h.bounds...), ^uint64(0))
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return bounds, cum
}

// ExpBuckets returns n exponentially spaced bounds starting at first and
// doubling — the usual shape for cycle costs.
func ExpBuckets(first uint64, n int) []uint64 {
	if first == 0 {
		first = 1
	}
	out := make([]uint64, 0, n)
	for b := first; len(out) < n; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Registry holds named counters. Lookups are get-or-create, so
// independent subsystems can share one registry without coordination.
// The simulated world is single-threaded by construction, so no locking
// is needed.
type Registry struct {
	counters map[string]*Counter
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// CounterValue returns the named counter's value (0 if absent) — the
// assertion hook tests use to compare against substrate Stats.
func (r *Registry) CounterValue(name string) uint64 {
	if c, ok := r.counters[name]; ok {
		return c.v
	}
	return 0
}

// Dump renders every counter as plain text, one `name value  # help`
// line each, sorted by name.
func (r *Registry) Dump() string {
	var b strings.Builder
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.counters[n]
		fmt.Fprintf(&b, "%-34s %12d  # %s\n", n, c.v, c.help)
	}
	return b.String()
}
