package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/datagen"
	"repro/internal/fst"
	"repro/internal/ml"
	"repro/internal/table"
	"repro/modis/workload"
)

// The paper's five tasks, built by their generators with the
// generators' own seeds: every run serves the same data lakes, like the
// paper's fixed datasets. The workload seed varies what is asked of
// them (job order and options, request rotation, appended rows).
var taskNames = []string{"t1", "t2", "t3", "t4", "t5"}

// buildTask generates one task's lake, universal table, space and
// model. The encoder matrix and the space's row index are built
// lazily by the program on the first valuation; warm forces both by
// valuating the full state once on a throwaway configuration, so set-up
// time holds them and the timed phase does not.
func buildTask(task string, warm bool) (*datagen.Workload, error) {
	var w *datagen.Workload
	switch task {
	case "t1":
		w = datagen.T1Movie(datagen.TaskConfig{})
	case "t2":
		w = datagen.T2House(datagen.TaskConfig{})
	case "t3":
		w = datagen.T3Avocado(datagen.TaskConfig{})
	case "t4":
		w = datagen.T4Mental(datagen.TaskConfig{})
	case "t5":
		w = datagen.T5Link(datagen.T5Config{})
	default:
		return nil, fmt.Errorf("unknown task %q", task)
	}
	if warm {
		if _, err := w.NewConfig(false).Valuate(w.Space.FullBitmap()); err != nil {
			return nil, fmt.Errorf("%s: warm valuation: %w", task, err)
		}
	}
	return w, nil
}

// buildTasks builds the named tasks and returns them with the build
// time.
func buildTasks(names []string) (map[string]*datagen.Workload, time.Duration, error) {
	t0 := time.Now()
	out := map[string]*datagen.Workload{}
	for _, n := range names {
		w, err := buildTask(n, true)
		if err != nil {
			return nil, 0, err
		}
		out[n] = w
	}
	return out, time.Since(t0), nil
}

// setUpTasks builds the named tasks o.setups times, recording each
// build as one repeated set-up, and returns the last build.
func (r *runResult) setUpTasks(o options, names []string) (map[string]*datagen.Workload, error) {
	var tasks map[string]*datagen.Workload
	for i := 0; i < o.setups; i++ {
		ws, d, err := buildTasks(names)
		if err != nil {
			return nil, err
		}
		tasks = ws
		r.build = append(r.build, d)
		r.setup = append(r.setup, d)
	}
	return tasks, nil
}

// taskOf returns the task of a request label ("t2/apx" → "t2").
func taskOf(label string) string {
	t, _, _ := strings.Cut(label, "/")
	return t
}

// describe derives the serving descriptor of a built task the way
// workload.BuildTask does for the built-in lakes.
func describe(task string, w *datagen.Workload, cfg *fst.Config) (*workload.Descriptor, error) {
	d, err := workload.Describe(task, cfg)
	if err != nil {
		return nil, err
	}
	d.Task = task
	d.Rows = w.Lake.Config.Rows
	for _, t := range w.Lake.Tables {
		d.Tables = append(d.Tables, workload.DigestTable(t))
	}
	d.Encoder.AdomK = w.Lake.Config.AdomK
	return d, nil
}

// appendBatch draws n rows of the task's universal table at random
// (from rng) and gives each a fresh id past every id in use, so the
// batch is schema-valid and stays inside the encoder's frozen string
// domains. nextID is advanced past the ids handed out.
func appendBatch(u *table.Table, rng *rand.Rand, n int, nextID *int64) []table.Row {
	idCol := u.Schema.Index("id")
	batch := make([]table.Row, n)
	for i := range batch {
		r := u.Rows[rng.Intn(len(u.Rows))].Clone()
		if idCol >= 0 {
			r[idCol] = table.Int(*nextID)
			*nextID++
		}
		batch[i] = r
	}
	return batch
}

// maxID returns one past the largest integer id of the table.
func maxID(u *table.Table) int64 {
	idCol := u.Schema.Index("id")
	var m int64
	if idCol < 0 {
		return 0
	}
	for _, r := range u.Rows {
		if r[idCol].IsNull() {
			continue
		}
		if v := r[idCol].AsInt(); v >= m {
			m = v + 1
		}
	}
	return m
}

// coldAfterAppends builds the reference configuration of the streaming
// contract: a freshly generated task whose space is rebuilt over the
// concatenation of its universal table and every appended batch, with
// a fresh encoder and the model rebound to it. No surrogate: every
// valuation is exact.
func coldAfterAppends(task string, appended []table.Row) (*fst.Config, error) {
	w, err := buildTask(task, false)
	if err != nil {
		return nil, err
	}
	u2, err := table.Concat("D_U", w.Lake.Universal, appended)
	if err != nil {
		return nil, err
	}
	enc := ml.NewTableEncoderSkip(u2, w.Lake.Target, "id")
	cfg := w.NewConfig(false)
	cfg.Space = w.Space.Rebuild(u2)
	cfg.Space.SetColumnSource(enc)
	tm, ok := w.Model.(*datagen.TableModel)
	if !ok {
		return nil, fmt.Errorf("%s: model %T cannot be rebound to a new encoder", task, w.Model)
	}
	cfg.Model = tm.WithEncoder(enc)
	return cfg, nil
}
