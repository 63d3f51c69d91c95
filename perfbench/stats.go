package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the "tail" is one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples. ok is false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// latency is an exact latency summary of one set of samples (ns).
type latency struct {
	N   int
	P50 int64
	P99 int64
}

// summarize sorts samples in place and reports p50 and p99, failing when
// the sample cannot support a p99.
func summarize(what string, samples []int64) (latency, error) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p50, ok50 := percentile(samples, 0.50)
	p99, ok99 := percentile(samples, 0.99)
	if !ok50 || !ok99 {
		return latency{}, fmt.Errorf("%s: %d samples cannot support a p99 with %d beyond it", what, len(samples), minBeyond)
	}
	return latency{N: len(samples), P50: p50, P99: p99}, nil
}

// interval is a span's extent in Unix nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that none of children covers:
// children are clipped to the parent and their union is subtracted, so
// two overlapping hedge legs count once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{math.MinInt64, math.MinInt64}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached reports 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// minSlotSamples is the fewest samples a slot needs for its p99 to have
// minBeyond samples beyond it.
const minSlotSamples = 100 * minBeyond

// slotStats is one measured window, slot by slot. A slot is one second,
// or as many whole seconds as it takes for every slot to hold
// minSlotSamples. The end-to-end metrics are medians over the slots, so
// a second of interference from outside the benchmark moves one slot,
// not the run.
type slotStats struct {
	Secs []int           `json:"secs"` // seconds per slot; the last also takes the window's tail
	OK   []int64         `json:"ok"`   // completions per slot
	P50  []int64         `json:"p50"`  // per-slot exact percentiles (ns)
	P99  []int64         `json:"p99"`
	CPU  []time.Duration `json:"cpu"` // server CPU per slot
	// All summarizes every sample of the window together.
	All latency `json:"all"`
}

// newSlotStats summarizes per-second latency samples (sorting them in
// place), completion counts and the server's CPU readings at the second
// boundaries, merging seconds into slots where one second holds too few
// samples for a p99.
func newSlotStats(what string, lat [][]int64, ok []int64, cpu []time.Duration) (slotStats, error) {
	var bounds [][2]int
	for g := 1; g <= len(lat); g++ {
		bounds = slotBounds(len(lat), g)
		enough := true
		for _, b := range bounds {
			var c int
			for _, l := range lat[b[0]:b[1]] {
				c += len(l)
			}
			enough = enough && c >= minSlotSamples
		}
		if enough {
			break
		}
	}
	var st slotStats
	var all []int64
	for _, b := range bounds {
		var samples []int64
		var done int64
		for j := b[0]; j < b[1]; j++ {
			samples = append(samples, lat[j]...)
			done += ok[j]
		}
		all = append(all, samples...)
		l, err := summarize(fmt.Sprintf("%s, seconds %d-%d", what, b[0]+1, b[1]), samples)
		if err != nil {
			return st, err
		}
		st.Secs = append(st.Secs, b[1]-b[0])
		st.OK = append(st.OK, done)
		st.P50, st.P99 = append(st.P50, l.P50), append(st.P99, l.P99)
		st.CPU = append(st.CPU, cpu[b[1]]-cpu[b[0]])
	}
	var err error
	st.All, err = summarize(what, all)
	return st, err
}

// slotBounds splits n seconds into slots of g seconds, [start, end) each;
// the last slot takes the remainder.
func slotBounds(n, g int) [][2]int {
	var b [][2]int
	for k := 0; k < n; k += g {
		end := k + g
		if end+g > n {
			end = n
		}
		b = append(b, [2]int{k, end})
		if end == n {
			break
		}
	}
	return b
}

// medianOf returns the median of v.
func medianOf[T int64 | float64](v []T) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

// tally counts one client's measured requests and its failures.
type tally struct {
	attempted int64
	failed    int64
	outside   int64 // failures outside the measured window; they fail the run too
	err       error // the first failure
}

func (t *tally) fail(err error, measured bool) {
	if measured {
		t.attempted++
		t.failed++
	} else {
		t.outside++
	}
	if t.err == nil {
		t.err = err
	}
}

// runWindow opens the measured window, waits out its one-second slots
// calling read at each boundary (and once before the first), and closes
// it, returning its length.
func runWindow(slots int, from, until *atomic.Int64, read func() error) (time.Duration, error) {
	if err := read(); err != nil {
		return 0, err
	}
	start := time.Now()
	from.Store(start.UnixNano())
	for k := 1; k <= slots; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
		if k == slots {
			until.Store(time.Now().UnixNano())
		}
		if err := read(); err != nil {
			return 0, err
		}
	}
	return time.Duration(until.Load() - start.UnixNano()), nil
}
