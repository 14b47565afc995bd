package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"partalloc"
)

// quantile is the nearest-rank q-quantile of sorted (0 for no samples).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// beyond counts the samples in sorted strictly greater than v.
func beyond(sorted []int64, v int64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// median of xs (0 for none); the mean of the middle pair for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// relSpread is (max−min)/median of xs: how far a count that depends on
// client interleaving wanders between rounds.
func relSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return ratio(slices.Max(xs)-slices.Min(xs), median(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrape is one Prometheus text rendering of a metrics registry, parsed
// back into samples: the benchmark reads the engine's own series exactly
// as an operator's scraper would.
type scrape []promSample

type promSample struct {
	name   string
	labels string
	value  float64
}

// scrapeMetrics renders m and parses the result; a nil registry scrapes
// empty.
func scrapeMetrics(m *partalloc.Metrics) (scrape, error) {
	if m == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("render metrics: %w", err)
	}
	var out scrape
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		key := line[:sp]
		s := promSample{name: key, value: v}
		if br := strings.IndexByte(key, '{'); br >= 0 {
			s.name, s.labels = key[:br], key[br:]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of the named family.
func (s scrape) sum(name string) float64 {
	var t float64
	for _, x := range s {
		if x.name == name {
			t += x.value
		}
	}
	return t
}

// meanNonZero averages the named family's non-zero series (a per-tenant
// gauge that a tenant has not set yet reads 0).
func (s scrape) meanNonZero(name string) float64 {
	var t, n float64
	for _, x := range s {
		if x.name == name && x.value != 0 {
			t += x.value
			n++
		}
	}
	return ratio(t, n)
}

// quantile estimates the q-quantile of a histogram family, merged over
// its label sets, by linear interpolation inside the bucket that holds
// the rank, as Prometheus's histogram_quantile does. The engine's buckets
// are powers of two in nanoseconds, so the estimate is only as fine as
// the bucket; it is returned in the family's unit, seconds.
func (s scrape) quantile(name string, q float64) float64 {
	cum := map[float64]float64{}
	for _, x := range s {
		if x.name != name+"_bucket" {
			continue
		}
		le, ok := labelValue(x.labels, "le")
		if !ok {
			continue
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			bound = b
		}
		cum[bound] += x.value
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lower, below := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		if c >= rank {
			if math.IsInf(b, 1) {
				return lower
			}
			return lower + (b-lower)*ratio(rank-below, c-below)
		}
		lower, below = b, c
	}
	return lower
}

// labelValue extracts key's value from a rendered {k="v",...} label set.
func labelValue(labels, key string) (string, bool) {
	for _, lead := range []string{"{", ","} {
		prefix := lead + key + `="`
		i := strings.Index(labels, prefix)
		if i < 0 {
			continue
		}
		rest := labels[i+len(prefix):]
		if j := strings.IndexByte(rest, '"'); j >= 0 {
			return rest[:j], true
		}
	}
	return "", false
}
