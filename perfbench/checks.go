package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/fst"
	"repro/modis"
)

// The output checks. Each compares a report against an independent
// computation (brute force through the table route, a cold engine, a
// sequential re-run) or against a property the method guarantees. None
// compares against a stored copy of an earlier output.

// dominates reports Pareto dominance of a over b (all measures are
// minimized): no worse everywhere, strictly better somewhere.
func dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// epsTol absorbs the rounding of the ε-grid's logarithms: two values in
// one grid cell differ by a factor below 1+ε up to a few ulps.
const epsTol = 1e-9

// epsDominates reports ε-dominance of a over b (Section 5.1): a is
// within (1+ε) of b on every measure and no worse on at least one.
func epsDominates(a, b []float64, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	some := false
	for i := range a {
		if a[i] > (1+eps)*b[i]*(1+epsTol) {
			return false
		}
		if a[i] <= b[i] {
			some = true
		}
	}
	return some
}

func withinBounds(v, upper []float64) bool {
	if len(v) != len(upper) {
		return false
	}
	for i := range v {
		if !(v[i] <= upper[i]) {
			return false
		}
	}
	return true
}

// upperBounds lists the configuration's per-measure upper bounds.
func upperBounds(cfg *fst.Config) []float64 {
	bs := cfg.Bounds()
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = b.Upper
	}
	return out
}

// checkSkyline checks the properties every skyline must have: no
// member dominates another, and every member lies within bounds.
func checkSkyline(rep *modis.Report, upper []float64) error {
	for i, a := range rep.Skyline {
		if !withinBounds(a.Perf, upper) {
			return fmt.Errorf("member %d %v is outside the bounds %v", i, a.Perf, upper)
		}
		for j, b := range rep.Skyline {
			if i != j && dominates(a.Perf, b.Perf) {
				return fmt.Errorf("member %d %v dominates member %d %v", i, a.Perf, j, b.Perf)
			}
		}
	}
	return nil
}

// checkCoverage checks the ε-skyline guarantee of apx, bi and nobi:
// every in-bounds state the run valuated is ε-dominated by a member.
func checkCoverage(rep *modis.Report, valuated [][]float64, upper []float64, eps float64) error {
	for _, v := range valuated {
		if !withinBounds(v, upper) {
			continue
		}
		ok := false
		for _, m := range rep.Skyline {
			if epsDominates(m.Perf, v, eps) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("valuated state %v is not ε-dominated (ε=%g) by any of the %d members", v, eps, len(rep.Skyline))
		}
	}
	return nil
}

// checkDivSize checks that a diversified skyline holds at most k members.
func checkDivSize(rep *modis.Report, k int) error {
	if len(rep.Skyline) > k {
		return fmt.Errorf("div reported %d members, k = %d", len(rep.Skyline), k)
	}
	return nil
}

// vectorKey renders a vector's exact bits, for set comparison.
func vectorKey(v []float64) string {
	var b bytes.Buffer
	for _, x := range v {
		fmt.Fprintf(&b, "%016x,", math.Float64bits(x))
	}
	return b.String()
}

// paretoFront filters vectors pairwise: a vector stays unless another
// dominates it. Duplicates collapse to one.
func paretoFront(vs [][]float64) [][]float64 {
	seen := map[string]bool{}
	var out [][]float64
	for i, v := range vs {
		dom := false
		for j, o := range vs {
			if i != j && dominates(o, v) {
				dom = true
				break
			}
		}
		if k := vectorKey(v); !dom && !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// checkExact checks an exact run against the brute-force front: the
// set of skyline vectors must equal it bit for bit.
func checkExact(rep *modis.Report, brute [][]float64) error {
	want := map[string]bool{}
	for _, v := range brute {
		want[vectorKey(v)] = true
	}
	got := map[string]bool{}
	for _, m := range rep.Skyline {
		k := vectorKey(m.Perf)
		if !want[k] {
			return fmt.Errorf("member %v is not on the brute-force front", m.Perf)
		}
		got[k] = true
	}
	var missing []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("%d brute-force front vectors missing from the skyline (first: %s)", len(missing), missing[0])
	}
	return nil
}

// bruteFront enumerates every state with at most maxCleared entries
// cleared from the full state, valuates each through the table route
// (Space.Materialize, Model.Evaluate, the measure normalizers), keeps
// the states within bounds and returns their Pareto front.
func bruteFront(cfg *fst.Config, model fst.Model, maxCleared int) ([][]float64, error) {
	sp := cfg.Space
	full := sp.FullBitmap()
	var set []int
	full.ForEachSet(func(i int) { set = append(set, i) })
	upper := upperBounds(cfg)
	var vs [][]float64
	var walk func(bits fst.Bitmap, from, left int) error
	walk = func(bits fst.Bitmap, from, left int) error {
		raw, err := model.Evaluate(sp.Materialize(bits))
		if err != nil {
			return err
		}
		if len(raw) != len(cfg.Measures) {
			return fmt.Errorf("model returned %d metrics for %d measures", len(raw), len(cfg.Measures))
		}
		v := make([]float64, len(raw))
		for i, m := range cfg.Measures {
			norm := m.Normalize
			if norm == nil {
				norm = fst.Identity(1e-3)
			}
			v[i] = norm(raw[i])
		}
		if withinBounds(v, upper) {
			vs = append(vs, v)
		}
		if left == 0 {
			return nil
		}
		for k := from; k < len(set); k++ {
			child := bits.Clone()
			child.Clear(set[k])
			if err := walk(child, k+1, left-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(full, 0, maxCleared); err != nil {
		return nil, err
	}
	return paretoFront(vs), nil
}

// checkWarm checks a report served from a warm memo: no valuations and
// no exact calls.
func checkWarm(rep *modis.Report) error {
	if rep.Valuated != 0 || rep.ExactCalls != 0 {
		return fmt.Errorf("warm report valuated %d states with %d exact calls, want 0 and 0", rep.Valuated, rep.ExactCalls)
	}
	return nil
}

// skylineJSON is the byte form two skylines are compared in.
func skylineJSON(rep *modis.Report) string {
	blob, err := json.Marshal(rep.Skyline)
	if err != nil {
		return "marshal: " + err.Error()
	}
	return string(blob)
}

// checkSame checks two skylines are byte-identical.
func checkSame(what string, got, want *modis.Report) error {
	if g, w := skylineJSON(got), skylineJSON(want); g != w {
		return fmt.Errorf("%s: skylines differ\n got:  %s\n want: %s", what, g, w)
	}
	return nil
}

// checker collects check failures of one run.
type checker struct {
	failures []string
	checks   int
}

func (c *checker) add(what string, err error) {
	c.checks++
	if err != nil {
		c.failures = append(c.failures, what+": "+err.Error())
	}
}
