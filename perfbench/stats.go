package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (0
// for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runtimeSample is a snapshot of the process counters the end-to-end
// and runtime metrics are derived from.
type runtimeSample struct {
	allocs uint64  // heap objects allocated since start
	gcCPU  float64 // GC CPU seconds since start
}

var runtimeKeys = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	return out
}

// maxRSSMB is the peak resident memory of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scrapeMetrics fetches a /metrics exposition and sums every series of
// a name into one number; summary quantile series are skipped.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	sums := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "quantile=") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil || math.IsNaN(v) {
			continue
		}
		sums[name] += v
	}
	return sums, sc.Err()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eUnits and layerUnits list the reported metrics with their units,
// in print order. They match BENCHMARK.json.
var e2eUnits = [][2]string{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p90_ms", "ms"},
	{"allocs_per_job", "count"},
	{"max_rss_mb", "MB"},
}

var layerUnits = [][2]string{
	{"core.search_self_ms_per_job", "ms"},
	{"core.pruned_per_job", "count"},
	{"fst.valuations_per_job", "count"},
	{"fst.memo_hit_ratio", "ratio"},
	{"fst.memo_entries", "count"},
	{"fst.memo_invalidated_per_append", "count"},
	{"fst.memo_retained_ratio", "ratio"},
	{"ml.exact_calls_per_job", "count"},
	{"ml.exact_call_ms_p50", "ms"},
	{"ml.exact_busy_ms_per_job", "ms"},
	{"ml.exact_parallelism", "ratio"},
	{"estimator.estimate_calls_per_job", "count"},
	{"estimator.estimate_ms_per_job", "ms"},
	{"estimator.estimate_ms_max", "ms"},
	{"estimator.answered_ratio", "ratio"},
	{"estimator.observe_calls_per_job", "count"},
	{"workpool.wait_ms_per_job", "ms"},
	{"workpool.service_ms_per_job", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.queued_ms_p50", "ms"},
	{"serve.batch_merge_ratio", "ratio"},
	{"serve.batched_run_ratio", "ratio"},
	{"serve.fill_s", "s"},
	{"serve.append_latency_p50_ms", "ms"},
	{"wal.recover_s", "s"},
	{"wal.records_flushed_per_job", "count"},
	{"wal.bytes_per_job", "bytes"},
	{"datagen.build_s", "s"},
	{"runtime.gc_cpu_ms_per_job", "ms"},
}

// ratio divides, reading 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
