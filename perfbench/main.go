// Command perfbench is the end-to-end benchmark of MODis discovery and
// serving. It drives one named workload through the program's public
// layers for a fixed time, checks every output, and prints its metrics;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also wraps each configuration's Model and Estimator and the
// benchmark's own calls into the program in spans, kept in memory and
// written to .bench_build/traces/, and the metrics are the per-layer
// ones. Run it from the repository root through run.sh, which builds
// this package first:
//
//	bash perfbench/run.sh --workload discover --seed 1 --seconds 20 --trace 0
//
// Workloads: discover (in-process discovery, one job at a time, each
// on a fresh engine), serve-warm (closed-loop clients against a warm
// server) and serve-append (closed-loop clients with row appends on a
// server with a state directory). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/modis"
	"repro/modis/serve"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// minJobs is the smallest job count a timed phase ends on, so the
	// p90 latency has at least ten samples beyond it.
	minJobs int
	// setups is how many times the repeatable part of set-up runs; its
	// median is reported.
	setups int
	nproc  int
}

var workloads = map[string]func(context.Context, options, *tracer) (*runResult, error){
	"discover":     runDiscover,
	"serve-warm":   runServeWarm,
	"serve-append": runServeAppend,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "discover | serve-warm | serve-append")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: drives the generated lakes, job options and append batches")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds (whole rounds, at least 100 jobs)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.minJobs = 100
	o.setups = 5
	o.nproc = runtime.NumCPU()
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", o.workload)
		flag.Usage()
		os.Exit(2)
	}
	res, err := execute(context.Background(), o, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	blob, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
	if !res.out.Correct {
		os.Exit(1)
	}
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type executed struct {
	out      output
	failures []string
}

// execute runs one workload and assembles its report, printing the
// human-readable lines on the way.
func execute(ctx context.Context, o options, run func(context.Context, options, *tracer) (*runResult, error)) (*executed, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fmt.Printf("env workload=%s seed=%d seconds=%d trace=%t nproc=%d gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, o.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	r, err := run(ctx, o, tr)
	if err != nil {
		return nil, err
	}
	e2e := r.endToEnd()
	ex := &executed{failures: r.chk.failures}
	ex.out.Correct = len(r.chk.failures) == 0
	kinds := make([]string, 0, len(r.ops))
	for k := range r.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := r.ops[k]
		fmt.Printf("ops %s attempted=%d failed=%d\n", k, c[0], c[1])
		ex.out.Attempted += c[0]
		ex.out.Failed += c[1]
	}
	fmt.Printf("checks run=%d failed=%d\n", r.chk.checks, len(r.chk.failures))
	fmt.Printf("timed wall_s=%.3f jobs=%d\n", r.wall.Seconds(), len(r.jobs))
	for _, mu := range e2eUnits {
		if v, ok := e2e[mu[0]]; ok {
			fmt.Printf("metric %s %.6g %s\n", mu[0], v, mu[1])
		}
	}
	printLabels(r.jobs)
	ex.out.Metrics = map[string]metric{}
	if !o.trace {
		for _, mu := range e2eUnits {
			ex.out.Metrics[mu[0]] = metric{Value: e2e[mu[0]], Unit: mu[1]}
		}
		return ex, nil
	}
	r.commonLayers(tr.snapshot())
	printShares(tr.snapshot())
	for _, mu := range layerUnits {
		v := r.layer[mu[0]]
		fmt.Printf("layer %s %.6g %s\n", mu[0], v, mu[1])
		ex.out.Metrics[mu[0]] = metric{Value: v, Unit: mu[1]}
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("trace spans=%d file=%s\n", len(tr.snapshot()), path)
	return ex, nil
}

// jobSample is one completed job as its caller saw it.
type jobSample struct {
	label string
	lat   time.Duration
	rep   *modis.Report
	endNS int64 // tracer time the result arrived (traced runs)
}

// runResult is everything one run measured.
type runResult struct {
	setup []time.Duration // repeated set-ups; the median is reported
	build []time.Duration // repeated task builds
	// setupOnce is the part of set-up that runs once per run (server
	// start, memo fill, restart), added to the median.
	setupOnce time.Duration

	start   time.Time
	wall    time.Duration
	rt0     runtimeSample
	rt1     runtimeSample
	jobs    []jobSample
	appends []time.Duration
	// appendResp are the responses of the committed appends.
	appendResp []serve.AppendResponse
	ops        map[string]*[2]int // kind → attempted, failed
	layer      map[string]float64
	chk        checker
}

func newRunResult() *runResult {
	return &runResult{ops: map[string]*[2]int{}, layer: map[string]float64{}}
}

// op counts one attempted operation of a kind, failed when err != nil.
func (r *runResult) op(kind string, err error) {
	c, ok := r.ops[kind]
	if !ok {
		c = &[2]int{}
		r.ops[kind] = c
	}
	c[0]++
	if err != nil {
		c[1]++
	}
}

func (r *runResult) startTimed(tr *tracer) {
	runtime.GC()
	if tr != nil {
		tr.active.Store(true)
	}
	r.rt0 = readRuntime()
	r.start = time.Now()
}

// timedEnough reports whether the timed phase may end after the round
// just completed.
func (r *runResult) timedEnough(o options, jobs int) bool {
	return time.Since(r.start) >= time.Duration(o.seconds)*time.Second && jobs >= o.minJobs
}

func (r *runResult) stopTimed(tr *tracer) {
	r.wall = time.Since(r.start)
	r.rt1 = readRuntime()
	if tr != nil {
		tr.active.Store(false)
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// endToEnd derives the end-to-end metrics.
func (r *runResult) endToEnd() map[string]float64 {
	lats := make([]float64, len(r.jobs))
	for i, j := range r.jobs {
		lats[i] = ms(j.lat)
	}
	n := float64(len(r.jobs))
	return map[string]float64{
		"setup_s":            median(seconds(r.setup)) + r.setupOnce.Seconds(),
		"jobs_per_s":         ratio(n, r.wall.Seconds()),
		"job_latency_p50_ms": quantile(lats, 0.5),
		"job_latency_p90_ms": quantile(lats, 0.9),
		"allocs_per_job":     ratio(float64(r.rt1.allocs-r.rt0.allocs), n),
		"max_rss_mb":         maxRSSMB(),
	}
}

// commonLayers derives the per-layer metrics every workload computes
// the same way: from spans and from the jobs' reports.
func (r *runResult) commonLayers(spans []span) {
	lc := analyzeSpans(spans)
	n := float64(len(r.jobs))
	var pruned, valuated, self float64
	var overhead, queued []float64
	for _, j := range r.jobs {
		pruned += float64(j.rep.Pruned)
		valuated += float64(j.rep.Valuated)
		hi := j.endNS
		lo := hi - int64(j.rep.Wall)
		self += ms(j.rep.Wall) - float64(covered(lc.inference, lo, hi))/1e6
		overhead = append(overhead, ms(j.lat-j.rep.Wall-j.rep.Queued))
		queued = append(queued, ms(j.rep.Queued))
	}
	l := r.layer
	l["core.search_self_ms_per_job"] = ratio(self, n)
	l["core.pruned_per_job"] = ratio(pruned, n)
	l["fst.valuations_per_job"] = ratio(valuated, n)
	l["ml.exact_calls_per_job"] = ratio(float64(lc.exactCalls), n)
	l["ml.exact_call_ms_p50"] = median(lc.exactMS)
	l["ml.exact_busy_ms_per_job"] = ratio(lc.exactBusyMS, n)
	l["ml.exact_parallelism"] = ratio(lc.exactBusyMS, lc.exactUnionMS)
	l["estimator.estimate_calls_per_job"] = ratio(float64(lc.estimateCalls), n)
	l["estimator.estimate_ms_per_job"] = ratio(lc.estimateMS, n)
	l["estimator.estimate_ms_max"] = lc.estimateMax
	l["estimator.answered_ratio"] = ratio(float64(lc.estimateOK), float64(lc.estimateCalls))
	l["estimator.observe_calls_per_job"] = ratio(float64(lc.observeCalls), n)
	l["serve.overhead_ms_p50"] = median(overhead)
	l["serve.queued_ms_p50"] = median(queued)
	l["serve.append_latency_p50_ms"] = median(msAll(r.appends))
	l["runtime.gc_cpu_ms_per_job"] = ratio((r.rt1.gcCPU-r.rt0.gcCPU)*1000, n)
	if len(r.build) > 0 {
		l["datagen.build_s"] = median(seconds(r.build))
	}
}

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// printLabels prints each distinct request's job count and median
// latency.
func printLabels(jobs []jobSample) {
	lats := map[string][]float64{}
	for _, j := range jobs {
		lats[j.label] = append(lats[j.label], ms(j.lat))
	}
	labels := make([]string, 0, len(lats))
	for l := range lats {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("label %s jobs=%d p50_ms=%.3f\n", l, len(lats[l]), median(lats[l]))
	}
}

// printShares prints, per distinct in-process job, the time its runs
// spent in estimator calls and exact inference next to their wall
// time, from the spans whose parent is the job's Engine.Run span.
func printShares(spans []span) {
	label := map[int64]string{}
	wall := map[string]float64{}
	for _, s := range spans {
		if s.Name == spanRun {
			label[s.ID] = s.Job
			wall[s.Job] += ms(s.dur())
		}
	}
	est, ml := map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		l, ok := label[s.Parent]
		if !ok {
			continue
		}
		switch s.Name {
		case spanEstimate, spanObserve:
			est[l] += ms(s.dur())
		case spanModel:
			ml[l] += ms(s.dur())
		}
	}
	labels := make([]string, 0, len(wall))
	for l := range wall {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("share %s run_ms=%.1f estimator_ms=%.1f (%.0f%%) ml_busy_ms=%.1f\n",
			l, wall[l], est[l], 100*ratio(est[l], wall[l]), ml[l])
	}
}
