package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"omega/internal/experiments"
	"omega/internal/graph/datasets"
	"omega/internal/obs"
)

// suiteBench regenerates every registered experiment with omega-bench's
// defaults. Each rep gets fresh dataset and cell caches, so it repeats
// the work of one omega-bench invocation.
type suiteBench struct {
	scale int
	seed  uint64
	par   int

	res      *experiments.SuiteResult
	first    uint64 // table digest of the first run
	haveRef  bool
	spanExp  map[string][]float64
	cells    uint64
	cellHits uint64
	dsMisses uint64
}

func (b *suiteBench) options() experiments.Options {
	return experiments.Options{
		Scale: b.scale, Seed: b.seed, Parallelism: b.par,
		Timeout:  10 * time.Minute,
		Datasets: datasets.New(),
		Cells:    experiments.NewCellCache(),
	}
}

// setup is a warm-up run of the whole suite, timed as setup_s and
// checked like a rep.
func (b *suiteBench) setup() error {
	b.res = experiments.Suite(context.Background(), experiments.Registry(), b.options(), nil)
	var t tally
	b.check(&t)
	if t.failed > 0 {
		return fmt.Errorf("warm-up suite: %s", t.errs[0])
	}
	return nil
}

func (b *suiteBench) prepare() error {
	b.spanExp = map[string][]float64{}
	return nil
}

func (b *suiteBench) rep(traced bool) error {
	b.res = experiments.Suite(context.Background(), experiments.Registry(), b.options(), nil)
	if traced {
		var cells, hits, misses uint64
		for _, te := range b.res.Telemetry {
			b.spanExp[te.ID] = append(b.spanExp[te.ID], te.Wall.Seconds())
			cells += te.Cells
			hits += te.CellHits
			misses += te.CacheMisses
		}
		b.cells, b.cellHits, b.dsMisses = cells, hits, misses
	}
	return nil
}

// tableDigest hashes every experiment table (not the timing summary).
func tableDigest(res *experiments.SuiteResult) uint64 {
	h := fnv.New64a()
	for _, t := range res.Tables {
		h.Write([]byte(t.Format()))
	}
	return h.Sum64()
}

// check requires every experiment to succeed and every table to repeat
// the first run's byte for byte.
func (b *suiteBench) check(t *tally) {
	for _, tbl := range b.res.Tables {
		var err error
		if tbl.Failed {
			err = fmt.Errorf("experiment %s failed", tbl.ID)
		}
		t.op(err)
	}
	d := tableDigest(b.res)
	if !b.haveRef {
		b.first, b.haveRef = d, true
	}
	var err error
	if d != b.first {
		err = fmt.Errorf("suite tables differ from the first run")
	}
	t.op(err)
	b.res = nil // drop the run's caches before the next run starts
}

// accesses runs one more suite, untimed and with a metrics sink, and
// counts the memory accesses its machines report. Replayed cells
// count too: the total is the simulated output the suite delivers.
func (b *suiteBench) accesses() (uint64, error) {
	o := b.options()
	var c accessCounter
	o.Metrics = &c
	res := experiments.Suite(context.Background(), experiments.Registry(), o, nil)
	if n := res.Failed(); n > 0 {
		return 0, fmt.Errorf("suite with metrics sink: %d experiments failed", n)
	}
	if tableDigest(res) != b.first {
		return 0, fmt.Errorf("suite tables change when a metrics sink is attached")
	}
	return c.total(), nil
}

// accessCounter keeps the largest cumulative "machine/accesses" value of
// every sample series (experiment, run, machine, access kind).
type accessCounter struct {
	mu   sync.Mutex
	last map[obs.MetricSample]uint64
}

func (c *accessCounter) Sample(s obs.MetricSample) {
	if s.Component != "machine" || s.Name != "accesses" {
		return
	}
	v := s.Value
	s.Iteration, s.Value = 0, 0
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.last == nil {
		c.last = map[obs.MetricSample]uint64{}
	}
	if v > c.last[s] {
		c.last[s] = v
	}
}

func (c *accessCounter) total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n uint64
	for _, v := range c.last {
		n += v
	}
	return n
}

func (b *suiteBench) digest() uint64 { return b.first }

func (b *suiteBench) layerMetrics(set func(string, float64, int)) {
	for id, v := range b.spanExp {
		set("span.experiment_s."+metricID(id), median(v), len(v))
	}
	set("experiments.cells", float64(b.cells), 1)
	if b.cells > 0 {
		set("experiments.cell_hit_ratio", float64(b.cellHits)/float64(b.cells), 1)
	}
	set("experiments.dataset_misses", float64(b.dsMisses), 1)
}

func (b *suiteBench) notes() []string {
	return []string{fmt.Sprintf("suite: %d experiments at scale %d, parallelism %d, fresh dataset and cell caches per run",
		len(experiments.Registry()), b.scale, b.par)}
}
