package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/experiments"
	"omega/internal/graph"
	"omega/internal/graph/reorder"
	"omega/internal/ligra"
	"omega/internal/memsys"
	"omega/internal/obs"
)

// coverage is the scratchpad sizing of every OMEGA machine (the paper's
// 20% of vtxProp).
const coverage = 0.20

// highRandomAlgs are the Table II algorithms with "high" random
// intensity: the powerlaw workload's set.
var highRandomAlgs = []string{"PageRank", "BFS", "SSSP", "BC", "Radii", "CC"}

// algRun runs one algorithm exactly as its registered Spec.Run does, but
// keeps the result so it can be compared with the reference.
type algRun struct {
	// schedule must equal the registered Spec.Schedule; a mismatch means
	// the registry changed and this algRun no longer runs the same work.
	schedule string
	run      func(fw *ligra.Framework) any
	// reference returns the check of one result against the plain-Go
	// reference implementation, computed once per graph.
	reference func(g *graph.Graph) func(res any) error
}

var algRuns = map[string]algRun{
	"PageRank": {"iters=1,damping=0.85",
		func(fw *ligra.Framework) any { return algorithms.PageRank(fw, algorithms.Params{Iterations: 1}) },
		func(g *graph.Graph) func(any) error {
			want := algorithms.ReferencePageRank(g, 1, 0.85)
			return func(r any) error {
				return near("rank", r.(*algorithms.PageRankResult).Ranks, want, 1e-9, 0)
			}
		}},
	"BFS": {"root=default",
		func(fw *ligra.Framework) any { return algorithms.BFS(fw, algorithms.DefaultRoot(fw.Graph())) },
		func(g *graph.Graph) func(any) error {
			root := algorithms.DefaultRoot(g)
			want := algorithms.ReferenceBFS(g, root)
			return func(r any) error {
				res := r.(*algorithms.BFSResult)
				levels := res.Levels(root)
				for v := range want {
					if want[v] == ^uint32(0) {
						if res.Parents[v] != ^uint32(0) {
							return fmt.Errorf("vertex %d should be unreachable", v)
						}
					} else if levels[v] != want[v] {
						return fmt.Errorf("level[%d] = %d, want %d", v, levels[v], want[v])
					}
				}
				return nil
			}
		}},
	"SSSP": {"root=default",
		func(fw *ligra.Framework) any { return algorithms.SSSP(fw, algorithms.DefaultRoot(fw.Graph())) },
		func(g *graph.Graph) func(any) error {
			want := algorithms.ReferenceSSSP(g, algorithms.DefaultRoot(g))
			return func(r any) error { return equal("dist", r.(*algorithms.SSSPResult).Dist, want) }
		}},
	"BC": {"root=default",
		func(fw *ligra.Framework) any { return algorithms.BC(fw, algorithms.DefaultRoot(fw.Graph())) },
		func(g *graph.Graph) func(any) error {
			paths, levels := algorithms.ReferenceBC(g, algorithms.DefaultRoot(g))
			return func(r any) error {
				res := r.(*algorithms.BCResult)
				if err := equal("level", res.Levels, levels); err != nil {
					return err
				}
				return near("paths", res.NumPaths, paths, 0, 1e-6)
			}
		}},
	"Radii": {"k=16,seed=12345",
		func(fw *ligra.Framework) any { return algorithms.Radii(fw, 16, 12345) },
		func(g *graph.Graph) func(any) error {
			// The sampled sources come from the run; the reference is
			// computed for the first run's sources and every later run
			// must sample the same ones.
			var sources []uint32
			var want []int64
			return func(r any) error {
				res := r.(*algorithms.RadiiResult)
				if want == nil {
					sources = slices.Clone(res.Sources)
					want = algorithms.ReferenceRadii(g, sources)
				}
				if err := equal("source", res.Sources, sources); err != nil {
					return err
				}
				return equal("radius", res.Radii, want)
			}
		}},
	"CC": {"converge",
		func(fw *ligra.Framework) any { return algorithms.CC(fw) },
		func(g *graph.Graph) func(any) error {
			want := algorithms.ReferenceCC(g)
			return func(r any) error { return equal("label", r.(*algorithms.CCResult).Labels, want) }
		}},
	"TC": {"",
		func(fw *ligra.Framework) any { return algorithms.TC(fw) },
		func(g *graph.Graph) func(any) error {
			want := algorithms.ReferenceTC(g)
			return func(r any) error {
				if got := r.(*algorithms.TCResult).Total; got != want {
					return fmt.Errorf("triangles = %d, want %d", got, want)
				}
				return nil
			}
		}},
	"KC": {"k=0",
		func(fw *ligra.Framework) any { return algorithms.KC(fw, 0) },
		func(g *graph.Graph) func(any) error {
			want := algorithms.ReferenceKC(g)
			return func(r any) error { return equal("coreness", r.(*algorithms.KCResult).Coreness, want) }
		}},
}

func equal[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// near compares floats within an absolute tolerance abs plus a relative
// tolerance rel of (1+|want|).
func near(what string, got, want []float64, abs, rel float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > abs+rel*(1+math.Abs(want[i])) {
			return fmt.Errorf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// cell is one (algorithm, machine) simulation of a rep.
type cell struct {
	alg, machine string
	result       any
	stats        core.MachineStats
	counts       map[string]uint64 // registry sums by "component/name" and "component/name/level"
	// samples is the metric stream of the algorithm's machine pair.
	samples []obs.MetricSample
	// host seconds in each public call
	newS, runS, statsS float64
}

// graphBench runs every selected algorithm on the scaled baseline and
// OMEGA machines over one generated graph, one cell at a time on one
// goroutine, each machine with an obs.Buffer attached as omega.Compare
// does.
type graphBench struct {
	recipe     string
	vertexLog2 int
	seed       uint64
	algs       []string

	g        *graph.Graph
	buildS   []float64
	checks   map[string]func(any) error
	cells    []cell
	first    []uint64 // hash of each cell's stats and metric stream in the first rep
	firstSum uint64
	// traced-rep spans and counts
	traced        int
	spanRun       map[string][]float64
	spanNew       []float64
	spanStats     []float64
	countsByMach  map[string]map[string]uint64
	samplesByMach map[string]int
}

func newGraphBench(recipe string, vertexLog2 int, seed uint64, algs []string) *graphBench {
	if algs == nil {
		for _, s := range algorithms.All() {
			algs = append(algs, s.Name)
		}
	}
	return &graphBench{recipe: recipe, vertexLog2: vertexLog2, seed: seed, algs: algs}
}

// setup generates the weighted graph with the suite's dataset recipe and
// reorders it by in-degree (OMEGA's offline preprocessing).
func (b *graphBench) setup() error {
	ds, ok := experiments.DatasetByName(b.recipe)
	if !ok {
		return fmt.Errorf("no dataset recipe %q", b.recipe)
	}
	scale := b.vertexLog2
	if b.recipe == "apu" {
		scale++ // the apu recipe builds 2^(Scale-1) vertices
	}
	t0 := time.Now()
	g := ds.Build(experiments.Options{Scale: scale, Seed: b.seed}, true)
	g = reorder.Apply(g, reorder.Compute(g, reorder.InDegree))
	g.Name = b.recipe
	b.buildS = append(b.buildS, time.Since(t0).Seconds())
	if g.NumVertices() != 1<<b.vertexLog2 {
		return fmt.Errorf("%s graph has %d vertices, want %d", b.recipe, g.NumVertices(), 1<<b.vertexLog2)
	}
	if b.g != nil && !sameGraph(b.g, g) {
		return fmt.Errorf("%s graph build is not deterministic", b.recipe)
	}
	b.g = g
	return nil
}

func sameGraph(a, b *graph.Graph) bool {
	return slices.Equal(a.OutOffsets, b.OutOffsets) && slices.Equal(a.OutEdges, b.OutEdges) &&
		slices.Equal(a.Weights, b.Weights) && a.Undirected == b.Undirected
}

// prepare checks that each algRun still runs its registered schedule and
// computes the reference results.
func (b *graphBench) prepare() error {
	b.checks = map[string]func(any) error{}
	for _, name := range b.algs {
		spec, ok := algorithms.ByName(name)
		if !ok {
			return fmt.Errorf("no algorithm %q", name)
		}
		d, ok := algRuns[name]
		if !ok || d.schedule != spec.Schedule {
			return fmt.Errorf("%s: registered schedule %q is not the benchmark's %q", name, spec.Schedule, d.schedule)
		}
		if spec.NeedsUndirected && !b.g.Undirected {
			return fmt.Errorf("%s needs an undirected graph", name)
		}
		b.checks[name] = d.reference(b.g)
	}
	b.spanRun = map[string][]float64{}
	b.countsByMach = map[string]map[string]uint64{}
	b.samplesByMach = map[string]int{}
	return nil
}

func (b *graphBench) rep(traced bool) error {
	b.cells = b.cells[:0]
	for _, name := range b.algs {
		spec, _ := algorithms.ByName(name)
		cfgs := [2]core.Config{}
		cfgs[0], cfgs[1] = core.ScaledPair(b.g.NumVertices(), spec.VtxPropBytes, coverage)
		buf := obs.NewBuffer()
		for i, cfg := range cfgs {
			t0 := time.Now()
			m := core.NewMachine(cfg)
			m.AttachSink(buf)
			t1 := time.Now()
			res := algRuns[name].run(ligra.New(m, b.g))
			t2 := time.Now()
			st := m.Stats()
			t3 := time.Now()
			b.cells = append(b.cells, cell{
				alg: name, machine: machineNames[i], result: res, stats: st,
				counts: registryCounts(m.Metrics()),
				newS:   t1.Sub(t0).Seconds(), runS: t2.Sub(t1).Seconds(), statsS: t3.Sub(t2).Seconds(),
			})
		}
		samples := buf.Drain()
		b.cells[len(b.cells)-2].samples = samples
		b.cells[len(b.cells)-1].samples = samples
	}
	if traced {
		b.traced++
		var newS, statsS float64
		for _, c := range b.cells {
			k := c.alg + "." + c.machine
			b.spanRun[k] = append(b.spanRun[k], c.runS)
			newS += c.newS
			statsS += c.statsS
		}
		b.spanNew = append(b.spanNew, newS)
		b.spanStats = append(b.spanStats, statsS)
	}
	return nil
}

// registryCounts sums a machine registry's counters by component/name
// (over levels) and keeps the per-level values too.
func registryCounts(r *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	r.Each(func(d obs.Desc) {
		if d.Read == nil {
			return
		}
		v := d.Read()
		out[d.Component+"/"+d.Name] += v
		if d.Level != "" {
			out[d.Component+"/"+d.Name+"/"+d.Level] += v
		}
	})
	return out
}

// check compares every cell with its reference and with the first rep:
// a deterministic simulator must repeat its statistics exactly.
func (b *graphBench) check(t *tally) {
	firstRep := b.first == nil
	for i, c := range b.cells {
		err := b.checks[c.alg](c.result)
		if err != nil {
			err = fmt.Errorf("%s on %s: %w", c.alg, c.machine, err)
		}
		h := fnv.New64a()
		if jerr := json.NewEncoder(h).Encode(c.stats); jerr != nil && err == nil {
			err = jerr
		}
		for _, s := range c.samples {
			if s.Machine == c.stats.Name {
				fmt.Fprintf(h, "%+v\n", s)
			}
		}
		if firstRep {
			b.first = append(b.first, h.Sum64())
		} else if err == nil && h.Sum64() != b.first[i] {
			err = fmt.Errorf("%s on %s: statistics differ from the first repetition", c.alg, c.machine)
		}
		t.op(err)
	}
	if firstRep {
		h := fnv.New64a()
		for _, v := range b.first {
			fmt.Fprintf(h, "%016x", v)
		}
		b.firstSum = h.Sum64()
	}
	if b.traced > 0 && len(b.countsByMach) == 0 {
		for _, c := range b.cells {
			m := b.countsByMach[c.machine]
			if m == nil {
				m = map[string]uint64{}
				b.countsByMach[c.machine] = m
			}
			for k, v := range c.counts {
				m[k] += v
			}
			for _, s := range c.samples {
				if s.Machine == c.stats.Name {
					b.samplesByMach[c.machine]++
				}
			}
		}
	}
	// Drop the outputs so they are not live during the next rep.
	for i := range b.cells {
		b.cells[i].result, b.cells[i].samples = nil, nil
	}
}

func (b *graphBench) accesses() (uint64, error) {
	var n uint64
	for _, c := range b.cells {
		n += c.stats.TotalAccesses()
	}
	return n, nil
}

func (b *graphBench) digest() uint64 { return b.firstSum }

func (b *graphBench) layerMetrics(set func(string, float64, int)) {
	set("span.graph_build_s", median(b.buildS), len(b.buildS))
	set("span.machine_new_s", median(b.spanNew), len(b.spanNew))
	set("span.stats_s", median(b.spanStats), len(b.spanStats))
	for k, v := range b.spanRun {
		set("span.run_s."+k, median(v), len(v))
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	l1, l2 := memsys.LevelL1.String(), memsys.LevelL2Plus.String()
	for mach, c := range b.countsByMach {
		tierHits := func(level string) float64 {
			return ratio(c["cache/read_hits/"+level]+c["cache/write_hits/"+level],
				c["cache/read_total/"+level]+c["cache/write_total/"+level])
		}
		vals := map[string]float64{
			"core.accesses":           float64(c["machine/accesses"]),
			"core.linebuf_hit_ratio":  ratio(c["linebuf/hits"], c["linebuf/hits"]+c["linebuf/stores"]),
			"core.sched_items":        float64(c["sched/items"]),
			"cpu.sim_cycles":          float64(c["cpu/cycles"]),
			"cache.l1_hit_ratio":      tierHits(l1),
			"cache.l2_hit_ratio":      tierHits(l2),
			"coherence.invalidations": float64(c["coherence/invalidations"]),
			"noc.messages":            float64(c["noc/messages"]),
			"noc.queue_wait_cycles":   float64(c["noc/queue_wait"]),
			"dram.accesses":           float64(c["dram/accesses"]),
			"dram.row_hit_ratio":      ratio(c["dram/row_hits"], c["dram/row_total"]),
			"scratchpad.accesses":     float64(c["scratchpad/local"] + c["scratchpad/remote"]),
			"pisc.executed":           float64(c["pisc/executed"]),
			"obs.samples":             float64(b.samplesByMach[mach]),
		}
		for name, v := range vals {
			set(name+"."+mach, v, 1)
		}
	}
	for alg, s := range b.speedups() {
		set("sim.speedup."+alg, s, 1)
	}
}

// speedups is OMEGA's simulated speedup over the baseline per algorithm.
func (b *graphBench) speedups() map[string]float64 {
	out := map[string]float64{}
	for i := 0; i+1 < len(b.cells); i += 2 {
		out[b.cells[i].alg] = b.cells[i+1].stats.Speedup(b.cells[i].stats)
	}
	return out
}

// recordedSpeedup is the Figure 14 row of EXPERIMENTS.md for each graph
// recipe: the speedups this reproduction recorded at omega-bench scale 13.
var recordedSpeedup = map[string]map[string]float64{
	"apu":  {"PageRank": 2.58, "BFS": 1.39, "SSSP": 1.69, "BC": 1.10, "Radii": 2.48, "CC": 1.96, "TC": 1.00, "KC": 2.28},
	"road": {"PageRank": 1.25, "BFS": 1.00, "SSSP": 1.02, "BC": 0.99, "Radii": 1.12, "CC": 0.97, "TC": 0.95, "KC": 1.20},
}

// paperSpeedup is what the paper states for Figure 14 (EXPERIMENTS.md):
// about 2x on average for power-law graphs, at most 1.15x on road graphs.
var paperSpeedup = map[string]string{
	"PageRank": "~2.8x (up to ~3.5x)", "BFS": "~2x", "SSSP": "~1.6x", "BC": "2x suite average",
	"Radii": "~2x", "CC": "2x suite average", "TC": "limited", "KC": "2x suite average",
}

func (b *graphBench) notes() []string {
	sp := b.speedups()
	out := []string{
		fmt.Sprintf("fidelity: simulated OMEGA speedup on %s (2^%d vertices) beside EXPERIMENTS.md Figure 14", b.recipe, b.vertexLog2),
	}
	for _, alg := range b.algs {
		paper := paperSpeedup[alg]
		if b.recipe == "road" {
			paper = "<=1.15x (road class)"
		}
		out = append(out, fmt.Sprintf("fidelity: sim.speedup.%-8s %.3fx   recorded %.2fx   paper %s",
			alg, sp[alg], recordedSpeedup[b.recipe][alg], paper))
	}
	return append(out, "fidelity: the simulator is not validated against hardware; only the paper's figures are compared")
}
