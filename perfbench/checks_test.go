package main

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/modis"
)

// cloneReport deep-copies a report's skyline so a corruption cannot
// leak into the genuine report.
func cloneReport(rep *modis.Report) *modis.Report {
	c := *rep
	c.Skyline = nil
	for _, m := range rep.Skyline {
		mm := *m
		mm.Perf = append([]float64(nil), m.Perf...)
		mm.Bitmap = append([]uint64(nil), m.Bitmap...)
		c.Skyline = append(c.Skyline, &mm)
	}
	return &c
}

// Each check must reject a corrupted report that its genuine
// counterpart passes.
func TestChecksRejectCorruptedReports(t *testing.T) {
	ctx := context.Background()
	w, err := buildTask("t3", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.NewConfig(false)
	upper := upperBounds(cfg)
	exact, err := modis.NewEngine(cfg).Run(ctx, "exact", modis.WithMaxLevel(2))
	if err != nil {
		t.Fatal(err)
	}
	front, err := bruteFront(w.NewConfig(false), w.Model, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Skyline) < 2 {
		t.Fatalf("exact skyline has %d members; the corruptions need two", len(exact.Skyline))
	}
	if err := checkSkyline(exact, upper); err != nil {
		t.Fatalf("genuine exact report rejected: %v", err)
	}
	if err := checkExact(exact, front); err != nil {
		t.Fatalf("genuine exact report rejected: %v", err)
	}

	t.Run("added dominated member", func(t *testing.T) {
		bad := cloneReport(exact)
		m := *bad.Skyline[0]
		m.Perf = append([]float64(nil), m.Perf...)
		// One measure a hair worse, the rest equal: member 0 dominates it.
		for i := range m.Perf {
			if m.Perf[i] < 1 {
				m.Perf[i] = math.Nextafter(m.Perf[i], 1)
				break
			}
		}
		bad.Skyline = append(bad.Skyline, &m)
		if checkSkyline(bad, upper) == nil {
			t.Error("checkSkyline accepted a dominated member")
		}
	})
	t.Run("perturbed vector", func(t *testing.T) {
		bad := cloneReport(exact)
		p := bad.Skyline[1].Perf
		p[0] = math.Nextafter(p[0], 2)
		if checkExact(bad, front) == nil {
			t.Error("checkExact accepted a perturbed vector")
		}
		if checkSame("perturbed", bad, exact) == nil {
			t.Error("checkSame accepted a perturbed vector")
		}
	})
	t.Run("brute-force member dropped", func(t *testing.T) {
		bad := cloneReport(exact)
		// Members may share a vector; drop every copy of member 0's.
		drop := vectorKey(bad.Skyline[0].Perf)
		var keep []*modis.Candidate
		for _, m := range bad.Skyline {
			if vectorKey(m.Perf) != drop {
				keep = append(keep, m)
			}
		}
		bad.Skyline = keep
		if checkExact(bad, front) == nil {
			t.Error("checkExact accepted a skyline missing a front member")
		}
	})
	t.Run("serve-warm report with exact calls", func(t *testing.T) {
		bad := cloneReport(exact)
		bad.Valuated, bad.ExactCalls = 0, 3
		if checkWarm(bad) == nil {
			t.Error("checkWarm accepted a report with exact calls")
		}
		bad.Valuated, bad.ExactCalls = 0, 0
		if checkWarm(bad) != nil {
			t.Error("checkWarm rejected a report with no valuations")
		}
	})
	t.Run("uncovered valuated state", func(t *testing.T) {
		acfg := w.NewConfig(true)
		apx, err := modis.NewEngine(acfg).Run(ctx, "apx", modis.WithBudget(100), modis.WithMaxLevel(5))
		if err != nil {
			t.Fatal(err)
		}
		var vs [][]float64
		for _, tt := range acfg.Tests.All() {
			vs = append(vs, tt.Perf)
		}
		if err := checkCoverage(apx, vs, upper, 0.1); err != nil {
			t.Fatalf("genuine apx report rejected: %v", err)
		}
		strong := append([]float64(nil), apx.Skyline[0].Perf...)
		for i := range strong {
			strong[i] /= 2
		}
		if checkCoverage(apx, append(vs, strong), upper, 0.1) == nil {
			t.Error("checkCoverage accepted a valuated state no member ε-dominates")
		}
	})
	t.Run("div larger than k", func(t *testing.T) {
		if checkDivSize(exact, len(exact.Skyline)-1) == nil {
			t.Error("checkDivSize accepted more members than k")
		}
	})
}

// The short mode: every workload runs one round, traced, through all
// of its checks.
func TestShortModePassesEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"discover", "serve-warm", "serve-append"} {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 3, trace: true, setups: 1, nproc: runtime.NumCPU()}
			ex, err := execute(context.Background(), o, workloads[name])
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range ex.failures {
				t.Errorf("check failed: %s", f)
			}
			if !ex.out.Correct || ex.out.Attempted == 0 || ex.out.Failed != 0 {
				t.Fatalf("correct=%t attempted=%d failed=%d", ex.out.Correct, ex.out.Attempted, ex.out.Failed)
			}
			for _, mu := range layerUnits {
				if _, ok := ex.out.Metrics[mu[0]]; !ok {
					t.Errorf("per-layer metric %s missing", mu[0])
				}
			}
		})
	}
}
