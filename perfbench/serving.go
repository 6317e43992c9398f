package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/table"
	"repro/modis"
	"repro/modis/serve"
)

// node is one in-process modisd: a Scheduler and Server listening on a
// loopback port, reached through serve.Client like a remote daemon.
type node struct {
	sched   *serve.Scheduler
	srv     *serve.Server
	hs      *http.Server
	persist *serve.Persistence
	served  chan error
	base    string
	cli     *serve.Client
}

// startNode registers the tasks (surrogate off) on a fresh scheduler
// whose pool has nproc workers, optionally durable under stateDir, and
// starts serving. It returns once /healthz answers.
func startNode(ctx context.Context, o options, tasks map[string]*datagen.Workload, names []string, stateDir string, tr *tracer) (*node, error) {
	n := &node{served: make(chan error, 1)}
	if stateDir != "" {
		p, err := serve.OpenPersistence(serve.PersistOptions{Dir: stateDir})
		if err != nil {
			return nil, err
		}
		n.persist = p
	}
	n.sched = serve.NewScheduler(serve.SchedulerOptions{Workers: o.nproc, Persist: n.persist})
	for _, name := range names {
		w := tasks[name]
		cfg := w.NewConfig(false)
		desc, err := describe(name, w, cfg)
		if err != nil {
			return nil, err
		}
		if err := n.sched.Register(desc, wrapConfig(cfg, tr)); err != nil {
			n.sched.Close()
			if n.persist != nil {
				n.persist.Close()
			}
			return nil, err
		}
	}
	n.srv = serve.NewServer(n.sched, serve.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.sched.Close()
		if n.persist != nil {
			n.persist.Close()
		}
		return nil, err
	}
	n.hs = &http.Server{Handler: n.srv}
	go func() { n.served <- n.hs.Serve(ln) }()
	n.base = "http://" + ln.Addr().String()
	n.cli = serve.NewClient(n.base)
	if _, err := n.health(ctx); err != nil {
		n.stop(ctx)
		return nil, err
	}
	return n, nil
}

// health fetches /healthz.
func (n *node) health(ctx context.Context) (*serve.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// stop shuts the node down cleanly: HTTP first, then in-flight jobs
// drain, then the pool and the state directory close (a final flush).
func (n *node) stop(ctx context.Context) error {
	err := n.hs.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := n.sched.Drain(ctx); derr != nil {
		n.sched.CancelAll()
		err = errors.Join(err, derr)
	}
	n.srv.Close()
	n.sched.Close()
	if n.persist != nil {
		n.persist.Close()
	}
	http.DefaultClient.CloseIdleConnections()
	return err
}

// memoAndVersion reads each workload's memo size and table version.
func (n *node) memoAndVersion(ctx context.Context) (map[string][2]int, error) {
	h, err := n.health(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string][2]int{}
	for _, s := range h.Node.Shards {
		for _, w := range s.Workloads {
			out[w] = [2]int{s.Memo, int(s.TableVersion)}
		}
	}
	return out, nil
}

// request is one distinct served request.
type request struct {
	label string
	req   serve.SubmitRequest
}

func newRequest(task, algo string, seed int64) request {
	budget, maxl := 0, 2
	return request{
		label: task + "/" + algo,
		req: serve.SubmitRequest{Workload: task, Algorithm: algo, Options: &serve.JobOptions{
			Budget: &budget, MaxLevel: &maxl, Seed: &seed,
		}},
	}
}

// job submits one request and waits for its terminal event on the SSE
// stream (never polling), then fetches the report. The latency is
// submit to report in hand.
func (n *node) job(ctx context.Context, rq request, tr *tracer) (jobSample, error) {
	t0 := time.Now()
	id, st := tr.begin()
	acc, err := n.cli.Submit(ctx, rq.req)
	if err != nil {
		tr.end(id, st, spanSubmit, "", 0, false)
		return jobSample{}, err
	}
	tr.end(id, st, spanSubmit, acc.JobID, 0, false)
	id, st = tr.begin()
	final, err := n.cli.Events(ctx, acc.JobID, nil)
	tr.end(id, st, spanEvents, acc.JobID, 0, false)
	var endNS int64
	if tr != nil {
		endNS = tr.now()
	}
	if err != nil {
		return jobSample{}, err
	}
	if final == nil || final.Status != serve.StatusDone {
		return jobSample{}, fmt.Errorf("job %s ended %v", acc.JobID, final)
	}
	id, st = tr.begin()
	full, err := n.cli.Status(ctx, acc.JobID)
	tr.end(id, st, spanStatus, acc.JobID, 0, false)
	if err != nil {
		return jobSample{}, err
	}
	if full.Report == nil {
		return jobSample{}, fmt.Errorf("job %s: done without a report", acc.JobID)
	}
	return jobSample{label: rq.label, lat: time.Since(t0), rep: full.Report, endNS: endNS}, nil
}

// fill issues each request once, in order, and returns the reports.
func (n *node) fill(ctx context.Context, rqs []request) (map[string]*modis.Report, error) {
	out := map[string]*modis.Report{}
	for _, rq := range rqs {
		s, err := n.job(ctx, rq, nil)
		if err != nil {
			return nil, fmt.Errorf("fill %s: %w", rq.label, err)
		}
		out[rq.label] = s.rep
	}
	return out, nil
}

// clientLoop is one closed-loop client of the timed phase: each round
// it sends the requests of rqs in turn, starting at offset, each only
// after the previous one's result arrived, and then calls between
// (when set).
type clientLoop struct {
	rqs     []request
	offset  int
	between func() error
}

// drive runs the clients in lock-step rounds: every client runs its
// round concurrently with the others, and the next round starts once
// all have finished, so every round does the same work whatever the
// timing. Rounds repeat until the run has lasted its seconds and holds
// its minimum job count.
func (n *node) drive(ctx context.Context, o options, r *runResult, clients []clientLoop, tr *tracer) {
	var mu sync.Mutex
	for {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c clientLoop) {
				defer wg.Done()
				for i := range c.rqs {
					rq := c.rqs[(c.offset+i)%len(c.rqs)]
					s, err := n.job(ctx, rq, tr)
					mu.Lock()
					r.op("jobs", err)
					if err == nil {
						r.jobs = append(r.jobs, s)
					}
					mu.Unlock()
					if err != nil {
						fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rq.label, err)
					}
				}
				if c.between != nil {
					if err := c.between(); err != nil {
						fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
					}
				}
			}(c)
		}
		wg.Wait()
		if r.timedEnough(o, len(r.jobs)) {
			return
		}
	}
}

// serveLayers derives the per-layer metrics read from the node's
// /metrics deltas over the timed phase.
func serveLayers(r *runResult, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	n := float64(len(r.jobs))
	hits, misses := d("modis_memo_hits_total"), d("modis_memo_misses_total")
	r.layer["fst.memo_hit_ratio"] = ratio(hits, hits+misses)
	r.layer["fst.memo_entries"] = after["modis_memo_size"]
	r.layer["workpool.wait_ms_per_job"] = ratio(d("modis_pool_wait_seconds_total")*1000, n)
	r.layer["workpool.service_ms_per_job"] = ratio(d("modis_pool_service_seconds_total")*1000, n)
	r.layer["serve.batch_merge_ratio"] = ratio(d("modis_batch_merged_passes_total"), d("modis_batch_passes_total"))
	r.layer["serve.batched_run_ratio"] = ratio(d("modis_batched_runs_total"), n)
}

func runServeWarm(ctx context.Context, o options, tr *tracer) (*runResult, error) {
	names := []string{"t1", "t2", "t3", "t4"}
	r := newRunResult()
	tasks, err := r.setUpTasks(o, names)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	n, err := startNode(ctx, o, tasks, names, "", tr)
	if err != nil {
		return nil, err
	}
	defer n.stop(ctx)
	var rqs []request
	for _, t := range names {
		for _, a := range []string{"apx", "bi", "div"} {
			rqs = append(rqs, newRequest(t, a, o.seed))
		}
	}
	tf := time.Now()
	if _, err := n.fill(ctx, rqs); err != nil {
		return nil, err
	}
	r.layer["serve.fill_s"] = time.Since(tf).Seconds()
	r.setupOnce = time.Since(t0)

	before, err := scrapeMetrics(n.base)
	if err != nil {
		return nil, err
	}
	// A round is every distinct request once plus a second apx request
	// on t1, t2 and t3: fifteen requests. With the twelve alone every
	// request's latency group spans 1/12 of the jobs and the median rank
	// sits exactly on the edge between two groups; with fifteen, the
	// median and p90 ranks fall inside one.
	round := append(append([]request(nil), rqs...), rqs[0], rqs[3], rqs[6])
	clients := make([]clientLoop, o.nproc)
	for c := range clients {
		clients[c] = clientLoop{rqs: round, offset: c * len(round) / o.nproc}
	}
	r.startTimed(tr)
	n.drive(ctx, o, r, clients, tr)
	r.stopTimed(tr)
	after, err := scrapeMetrics(n.base)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		serveLayers(r, before, after)
	}

	// Checks: warm reports, byte-identical repeats, apx against a cold
	// in-process engine over the original tables.
	first := map[string]*modis.Report{}
	upper := map[string][]float64{}
	for _, t := range names {
		upper[t] = upperBounds(tasks[t].NewConfig(false))
	}
	for _, j := range r.jobs {
		r.chk.add(j.label+" warm", checkWarm(j.rep))
		r.chk.add(j.label+" skyline", checkSkyline(j.rep, upper[taskOf(j.label)]))
		if f, ok := first[j.label]; ok {
			r.chk.add(j.label+" repeat", checkSame("repeat of one request", j.rep, f))
		} else {
			first[j.label] = j.rep
		}
	}
	for _, t := range names {
		label := t + "/apx"
		f, ok := first[label]
		if !ok {
			continue
		}
		cold, err := buildTask(t, false)
		if err != nil {
			return nil, err
		}
		rep, err := modis.NewEngine(cold.NewConfig(false)).Run(ctx, "apx",
			modis.WithBudget(0), modis.WithMaxLevel(2), modis.WithSeed(o.seed), modis.WithParallelism(0))
		if err != nil {
			r.chk.add(label+" cold run", err)
			continue
		}
		r.chk.add(label+" vs cold engine", checkSame("served warm vs cold in-process", f, rep))
	}
	return r, nil
}

func runServeAppend(ctx context.Context, o options, tr *tracer) (*runResult, error) {
	names := []string{"t2", "t4"}
	r := newRunResult()
	tasks, err := r.setUpTasks(o, names)
	if err != nil {
		return nil, err
	}
	stateDir := filepath.Join(".bench_build", "state", fmt.Sprintf("serve-append-%d", os.Getpid()))
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)

	var rqs []request
	for _, t := range names {
		rqs = append(rqs, newRequest(t, "apx", o.seed))
	}
	// Set-up: fill the memo on a durable node, shut it down cleanly and
	// restart from the state directory.
	t0 := time.Now()
	first, err := startNode(ctx, o, tasks, names, stateDir, tr)
	if err != nil {
		return nil, err
	}
	tf := time.Now()
	if _, err := first.fill(ctx, rqs); err != nil {
		first.stop(ctx)
		return nil, err
	}
	r.layer["serve.fill_s"] = time.Since(tf).Seconds()
	was, err := first.memoAndVersion(ctx)
	if err != nil {
		first.stop(ctx)
		return nil, err
	}
	if err := first.stop(ctx); err != nil {
		return nil, err
	}
	fresh, _, err := buildTasks(names)
	if err != nil {
		return nil, err
	}
	tr0 := time.Now()
	n, err := startNode(ctx, o, fresh, names, stateDir, tr)
	r.op("restarts", err)
	if err != nil {
		return nil, err
	}
	defer n.stop(ctx)
	r.layer["wal.recover_s"] = time.Since(tr0).Seconds()
	now, err := n.memoAndVersion(ctx)
	if err != nil {
		return nil, err
	}
	for _, t := range names {
		r.chk.add(t+" restart memo and version", sameCounts(now[t], was[t]))
	}
	for _, rq := range rqs {
		s, err := n.job(ctx, rq, nil)
		if err != nil {
			return nil, fmt.Errorf("re-issue after restart: %w", err)
		}
		if s.rep.ExactCalls != 0 {
			r.chk.add(rq.label+" after restart", fmt.Errorf("made %d exact calls on the recovered memo", s.rep.ExactCalls))
		} else {
			r.chk.add(rq.label+" after restart", nil)
		}
	}
	r.setupOnce = time.Since(t0)

	// Timed phase: closed-loop apx clients. A round is six requests,
	// t2, t4, t4 twice over, the same sequence for every client, so the
	// first two requests of a round re-valuate what the last round's
	// appends invalidated and the other four are warm. The job-latency
	// median then falls inside the warm t4 group and the p90 inside the
	// re-valuating jobs, not on the edge between two groups. After its
	// requests of each round client 0 appends one batch to each
	// workload, draining whatever the other clients still run.
	rng := rand.New(rand.NewSource(o.seed))
	nextID := map[string]int64{}
	rows := map[string]int{}
	version := map[string]uint64{}
	appended := map[string][]table.Row{}
	for _, t := range names {
		nextID[t] = maxID(tasks[t].Lake.Universal)
		rows[t] = tasks[t].Lake.Universal.NumRows()
	}
	const batchRows = 2
	appendTo := func(t string) error {
		id := nextID[t]
		batch := appendBatch(tasks[t].Lake.Universal, rng, batchRows, &id)
		nextID[t] = id
		req, err := serve.WireRows(batch)
		if err != nil {
			return err
		}
		sid, st := tr.begin()
		a0 := time.Now()
		resp, err := n.cli.AppendRows(ctx, t, req)
		lat := time.Since(a0)
		tr.end(sid, st, spanAppend, t, 0, false)
		r.op("appends", err)
		if err != nil {
			return err
		}
		r.appends = append(r.appends, lat)
		appended[t] = append(appended[t], batch...)
		r.chk.add(t+" append version", checkAppend(resp, version[t], rows[t], batchRows))
		version[t] = resp.TableVersion
		rows[t] = resp.TotalRows
		r.appendResp = append(r.appendResp, *resp)
		return nil
	}
	before, err := scrapeMetrics(n.base)
	if err != nil {
		return nil, err
	}
	walBefore, bytesBefore := walFlushed(n), dirBytes(stateDir)
	t2, t4 := rqs[0], rqs[1]
	round := []request{t2, t4, t4, t2, t4, t4}
	clients := make([]clientLoop, o.nproc)
	for c := range clients {
		clients[c] = clientLoop{rqs: round}
	}
	clients[0].between = func() error {
		for _, t := range names {
			if err := appendTo(t); err != nil {
				return err
			}
		}
		return nil
	}
	r.startTimed(tr)
	n.drive(ctx, o, r, clients, tr)
	r.stopTimed(tr)
	n.persist.Flush()
	after, err := scrapeMetrics(n.base)
	if err != nil {
		return nil, err
	}
	var inv, ret int
	for _, a := range r.appendResp {
		inv += a.MemoInvalidated
		ret += a.MemoRetained
	}
	fmt.Printf("appends memo_invalidated=%d memo_retained=%d\n", inv, ret)
	if tr != nil {
		serveLayers(r, before, after)
		jobs := float64(len(r.jobs))
		r.layer["wal.records_flushed_per_job"] = ratio(float64(walFlushed(n)-walBefore), jobs)
		r.layer["wal.bytes_per_job"] = ratio(float64(dirBytes(stateDir)-bytesBefore), jobs)
		r.layer["fst.memo_invalidated_per_append"] = ratio(float64(inv), float64(len(r.appendResp)))
		r.layer["fst.memo_retained_ratio"] = ratio(float64(ret), float64(inv+ret))
	}

	// Checks: every skyline's properties; apx after the last append
	// against a cold engine over the original table plus every batch.
	for _, j := range r.jobs {
		r.chk.add(j.label+" skyline", checkSkyline(j.rep, upperBounds(tasks[taskOf(j.label)].NewConfig(false))))
	}
	for _, t := range names {
		rq := newRequest(t, "apx", o.seed)
		s, err := n.job(ctx, rq, nil)
		if err != nil {
			return nil, fmt.Errorf("final %s: %w", rq.label, err)
		}
		cfg, err := coldAfterAppends(t, appended[t])
		if err != nil {
			return nil, err
		}
		rep, err := modis.NewEngine(cfg).Run(ctx, "apx",
			modis.WithBudget(0), modis.WithMaxLevel(2), modis.WithSeed(o.seed), modis.WithParallelism(0))
		if err != nil {
			r.chk.add(rq.label+" cold run", err)
			continue
		}
		r.chk.add(rq.label+" vs cold engine after appends", checkSame("served after appends vs cold over concatenation", s.rep, rep))
	}
	return r, nil
}

// checkAppend checks one append moved the table version by one and the
// row count by the batch size.
func checkAppend(resp *serve.AppendResponse, prevVersion uint64, prevRows, batch int) error {
	if resp.TableVersion != prevVersion+1 {
		return fmt.Errorf("table_version %d after %d, want %d", resp.TableVersion, prevVersion, prevVersion+1)
	}
	if resp.Rows != batch || resp.TotalRows != prevRows+batch {
		return fmt.Errorf("rows %d total %d after %d, want %d and %d", resp.Rows, resp.TotalRows, prevRows, batch, prevRows+batch)
	}
	return nil
}

func sameCounts(now, was [2]int) error {
	if now != was {
		return fmt.Errorf("recovered memo size %d at table version %d, had %d at %d", now[0], now[1], was[0], was[1])
	}
	return nil
}

// walFlushed sums the records the node's stores made durable.
func walFlushed(n *node) uint64 {
	var total uint64
	for _, h := range n.persist.Health().Stores {
		total += h.Flushed
	}
	return total
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
