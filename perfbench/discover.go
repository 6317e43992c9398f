package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/modis"
)

// discJob is one job of the discover mix.
type discJob struct {
	label     string
	task      string
	algo      string
	surrogate bool
	opts      []modis.Option
	maxl      int // exact jobs: the depth the brute force enumerates
	eps       float64
	k         int
}

// discoverMix is one round of the discover workload: the paper's table
// settings for every task and search algorithm, exhaustive exact runs
// on the two tasks small enough for them, and deep budget-1000 apx runs.
// Every job valuates with all CPUs (WithParallelism(0)).
func discoverMix(seed int64) []discJob {
	const eps, k = 0.1, 5
	var mix []discJob
	for _, t := range taskNames {
		for _, a := range []string{"apx", "bi", "nobi", "div"} {
			mix = append(mix, discJob{
				label: t + "/" + a, task: t, algo: a, surrogate: true, eps: eps, k: k,
				opts: []modis.Option{modis.WithBudget(100), modis.WithEpsilon(eps), modis.WithMaxLevel(5),
					modis.WithK(k), modis.WithSeed(seed)},
			})
		}
	}
	for _, t := range []string{"t3", "t5"} {
		mix = append(mix, discJob{
			label: t + "/exact", task: t, algo: "exact", maxl: 2, eps: eps,
			opts: []modis.Option{modis.WithMaxLevel(2), modis.WithSeed(seed)},
		})
	}
	for _, t := range []string{"t1", "t2"} {
		mix = append(mix, discJob{
			label: t + "/apx-deep", task: t, algo: "apx", surrogate: true, eps: eps,
			opts: []modis.Option{modis.WithBudget(1000), modis.WithEpsilon(eps), modis.WithMaxLevel(5), modis.WithSeed(seed)},
		})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// discSample is one completed discover job.
type discSample struct {
	job   *discJob
	rep   *modis.Report
	tests *fst.TestSet // the fresh engine's memo, read by the checks
}

func runDiscover(ctx context.Context, o options, tr *tracer) (*runResult, error) {
	r := newRunResult()
	tasks, err := r.setUpTasks(o, taskNames)
	if err != nil {
		return nil, err
	}
	mix := discoverMix(o.seed)
	par := []modis.Option{modis.WithParallelism(0)}

	var samples []discSample
	r.startTimed(tr)
	for {
		for i := range mix {
			j := &mix[i]
			w := tasks[j.task]
			cfg := wrapConfig(w.NewConfig(j.surrogate), tr)
			eng := modis.NewEngine(cfg)
			id, st := tr.begin()
			if tr != nil {
				tr.cur.Store(id)
			}
			t0 := time.Now()
			rep, err := eng.Run(ctx, j.algo, append(j.opts, par...)...)
			lat := time.Since(t0)
			tr.end(id, st, spanRun, j.label, 0, false)
			r.op("jobs", err)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", j.label, err)
				continue
			}
			js := jobSample{label: j.label, lat: lat, rep: rep}
			if tr != nil {
				js.endNS = tr.now()
			}
			r.jobs = append(r.jobs, js)
			samples = append(samples, discSample{job: j, rep: rep, tests: cfg.Tests})
		}
		if r.timedEnough(o, len(r.jobs)) {
			break
		}
	}
	r.stopTimed(tr)

	discoverChecks(ctx, r, tasks, mix, samples)
	if tr != nil {
		discoverLayers(r, samples)
	}
	return r, nil
}

// discoverChecks runs every discover output check.
func discoverChecks(ctx context.Context, r *runResult, tasks map[string]*datagen.Workload, mix []discJob, samples []discSample) {
	first := map[string]*modis.Report{}
	brute := map[string][][]float64{}
	upperOf := map[string][]float64{}
	for t, w := range tasks {
		upperOf[t] = upperBounds(w.NewConfig(false))
	}
	for _, s := range samples {
		j := s.job
		w := tasks[j.task]
		upper := upperOf[j.task]
		r.chk.add(j.label+" skyline", checkSkyline(s.rep, upper))
		switch {
		case j.algo == "exact":
			front, ok := brute[j.label]
			if !ok {
				var err error
				front, err = bruteFront(w.NewConfig(false), w.Model, j.maxl)
				if err != nil {
					r.chk.add(j.label+" brute force", err)
					continue
				}
				brute[j.label] = front
			}
			r.chk.add(j.label+" vs brute force", checkExact(s.rep, front))
		case j.algo == "div":
			r.chk.add(j.label+" size", checkDivSize(s.rep, j.k))
		default:
			var vs [][]float64
			for _, t := range s.tests.All() {
				vs = append(vs, t.Perf)
			}
			r.chk.add(j.label+" ε-coverage", checkCoverage(s.rep, vs, upper, j.eps))
		}
		if f, ok := first[j.label]; ok {
			r.chk.add(j.label+" repeat", checkSame("same job, later round", s.rep, f))
		} else {
			first[j.label] = s.rep
		}
	}
	// Every distinct job again, sequentially, on a fresh engine.
	for i := range mix {
		j := &mix[i]
		f, ok := first[j.label]
		if !ok {
			continue
		}
		rep, err := modis.NewEngine(tasks[j.task].NewConfig(j.surrogate)).Run(ctx, j.algo, append(j.opts, modis.WithParallelism(1))...)
		if err != nil {
			r.chk.add(j.label+" parallelism 1", err)
			continue
		}
		r.chk.add(j.label+" parallelism 1", checkSame("parallelism 1 vs 0", rep, f))
	}
}

// discoverLayers derives the per-layer metrics of a traced discover run.
func discoverLayers(r *runResult, samples []discSample) {
	var hits, probes, entries float64
	for _, s := range samples {
		ms := s.tests.MemoStats()
		hits += float64(ms.Hits)
		probes += float64(ms.Hits + ms.Misses)
		entries += float64(s.tests.Len())
	}
	n := float64(len(samples))
	r.layer["fst.memo_hit_ratio"] = ratio(hits, probes)
	r.layer["fst.memo_entries"] = ratio(entries, n)
}
