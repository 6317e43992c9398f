package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fst"
	"repro/internal/skyline"
	"repro/internal/table"
)

// Span names recorded by the traced run. ml and estimator spans come
// from the wrappers installed around a configuration's Model and
// Estimator; the rest wrap the benchmark's own calls into the program.
const (
	spanModel    = "ml.evaluate"
	spanEstimate = "estimator.estimate"
	spanObserve  = "estimator.observe"
	spanRun      = "modis.engine_run"
	spanSubmit   = "serve.client_submit"
	spanEvents   = "serve.client_events"
	spanStatus   = "serve.client_status"
	spanAppend   = "serve.client_append"
)

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. Parent is the id of the span that caused it (0 when
// the cause cannot be named, e.g. an inference of a pass shared by
// several served jobs); Job is the request the span belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// OK is the estimator's answer flag (estimate spans only).
	OK bool `json:"ok,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while the timed phase runs; they are
// written out once the run ends. A nil *tracer records nothing, so the
// untraced run pays no tracing cost beyond a nil check at the
// benchmark's own call sites (the program is not wrapped at all).
type tracer struct {
	epoch  time.Time
	active atomic.Bool  // spans outside the timed phase are dropped
	cur    atomic.Int64 // the in-process job span inference is attributed to
	next   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start time; end records it.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), t.now()
}

func (t *tracer) end(id, start int64, name, job string, parent int64, ok bool) {
	if t == nil || !t.active.Load() {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Job: job, Start: start, End: t.now(), OK: ok}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines into path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedModel records a span around every exact model inference.
type tracedModel struct {
	inner fst.Model
	tr    *tracer
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Evaluate(d *table.Table) ([]float64, error) {
	id, start := m.tr.begin()
	raw, err := m.inner.Evaluate(d)
	m.tr.end(id, start, spanModel, "", m.tr.cur.Load(), false)
	return raw, err
}

// tracedRowsModel keeps the columnar fast path measured: it implements
// fst.RowsModel exactly when the wrapped model does.
type tracedRowsModel struct {
	tracedModel
	rows fst.RowsModel
}

func (m *tracedRowsModel) EvaluateRows(v fst.RowsView) ([]float64, bool, error) {
	id, start := m.tr.begin()
	raw, ok, err := m.rows.EvaluateRows(v)
	m.tr.end(id, start, spanModel, "", m.tr.cur.Load(), false)
	return raw, ok, err
}

// wrapModel returns m wrapped for tracing (m itself when tr is nil).
func wrapModel(m fst.Model, tr *tracer) fst.Model {
	if tr == nil {
		return m
	}
	base := tracedModel{inner: m, tr: tr}
	if rm, ok := m.(fst.RowsModel); ok {
		return &tracedRowsModel{tracedModel: base, rows: rm}
	}
	return &base
}

// tracedEstimator records spans around the surrogate's Estimate (which
// includes its lazy refits) and Observe calls.
type tracedEstimator struct {
	inner fst.Estimator
	tr    *tracer
}

func (e *tracedEstimator) Estimate(features []float64) (skyline.Vector, bool) {
	id, start := e.tr.begin()
	v, ok := e.inner.Estimate(features)
	e.tr.end(id, start, spanEstimate, "", e.tr.cur.Load(), ok)
	return v, ok
}

func (e *tracedEstimator) Observe(features []float64, v skyline.Vector) {
	id, start := e.tr.begin()
	e.inner.Observe(features, v)
	e.tr.end(id, start, spanObserve, "", e.tr.cur.Load(), false)
}

// wrapConfig installs the tracing wrappers on a configuration.
func wrapConfig(cfg *fst.Config, tr *tracer) *fst.Config {
	if tr == nil {
		return cfg
	}
	cfg.Model = wrapModel(cfg.Model, tr)
	if cfg.Est != nil {
		cfg.Est = &tracedEstimator{inner: cfg.Est, tr: tr}
	}
	return cfg
}

// interval is a half-open time range in tracer nanoseconds.
type interval struct{ lo, hi int64 }

// union merges overlapping intervals (sorted by start) and returns the
// merged list.
func union(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := []interval{s[0]}
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.lo <= last.hi {
			if iv.hi > last.hi {
				last.hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covered returns how much of [lo, hi) the merged intervals cover.
func covered(merged []interval, lo, hi int64) int64 {
	var c int64
	for _, iv := range merged {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			c += b - a
		}
	}
	return c
}

func totalLen(merged []interval) int64 {
	var c int64
	for _, iv := range merged {
		c += iv.hi - iv.lo
	}
	return c
}

// layerCosts are the ml and estimator numbers derived from spans.
type layerCosts struct {
	exactCalls    int
	exactMS       []float64
	exactBusyMS   float64
	exactUnionMS  float64
	estimateCalls int
	estimateOK    int
	estimateMS    float64
	estimateMax   float64
	observeCalls  int
	inference     []interval // merged ml + estimator intervals
}

func analyzeSpans(spans []span) layerCosts {
	var lc layerCosts
	var mlIv, allIv []interval
	for _, s := range spans {
		ms := float64(s.dur()) / 1e6
		switch s.Name {
		case spanModel:
			lc.exactCalls++
			lc.exactMS = append(lc.exactMS, ms)
			lc.exactBusyMS += ms
			mlIv = append(mlIv, interval{s.Start, s.End})
			allIv = append(allIv, interval{s.Start, s.End})
		case spanEstimate:
			lc.estimateCalls++
			if s.OK {
				lc.estimateOK++
			}
			lc.estimateMS += ms
			lc.estimateMax = max(lc.estimateMax, ms)
			allIv = append(allIv, interval{s.Start, s.End})
		case spanObserve:
			lc.observeCalls++
			allIv = append(allIv, interval{s.Start, s.End})
		}
	}
	lc.exactUnionMS = float64(totalLen(union(mlIv))) / 1e6
	lc.inference = union(allIv)
	return lc
}
