package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"omega/internal/algorithms"
	"omega/internal/experiments"
)

// workload is one benchmark workload. measure calls setup repeatedly
// (timed: setup_s), prepare once, then rep in a closed loop, with
// check after every rep outside the timed region.
type workload interface {
	// setup builds the inputs from the seed.
	setup() error
	// prepare does untimed work the checks need, such as reference
	// results.
	prepare() error
	// rep runs one repetition. traced reps also keep their spans.
	rep(traced bool) error
	// check verifies the last rep's outputs and counts operations.
	check(t *tally)
	// accesses is the number of memory accesses one rep simulates.
	accesses() (uint64, error)
	// layerMetrics sets the workload's per-layer values.
	layerMetrics(set func(name string, v float64, samples int))
	// digest hashes every simulated statistic of a rep.
	digest() uint64
	// notes are extra report lines (such as fidelity beside the paper).
	notes() []string
}

// tally counts operations and failed operations; the first few failure
// messages are kept for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// decl declares one reported metric; BENCHMARK.json lists the same set.
type decl struct{ name, unit, better string }

var machineNames = []string{"baseline", "omega"}

func endToEndDecls() []decl {
	return []decl{
		{"host_ginstr", "Ginstr", "lower"},
		{"instr_per_access", "instr", "lower"},
		{"setup_s", "s", "lower"},
		{"peak_rss_mb", "MB", "lower"},
	}
}

// hostTimeDecls are the host times of the untraced repetitions. They
// are per-layer metrics: on a shared host they drift with the other
// tenants' load by more than any useful regression bound.
var hostTimeDecls = []decl{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"maccesses_per_cpu_s", "M/s", "higher"},
}

// countDecls are the exact simulated counts read from each machine's
// metric registry; each is reported once per machine ("<name>.<machine>").
var countDecls = []decl{
	{"core.accesses", "count", "lower"},
	{"core.linebuf_hit_ratio", "ratio", "higher"},
	{"core.sched_items", "count", "lower"},
	{"cpu.sim_cycles", "cycles", "lower"},
	{"cache.l1_hit_ratio", "ratio", "higher"},
	{"cache.l2_hit_ratio", "ratio", "higher"},
	{"coherence.invalidations", "count", "lower"},
	{"noc.messages", "count", "lower"},
	{"noc.queue_wait_cycles", "cycles", "lower"},
	{"dram.accesses", "count", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"scratchpad.accesses", "count", "higher"},
	{"pisc.executed", "count", "higher"},
	{"obs.samples", "count", "lower"},
}

func perLayerDecls() []decl {
	d := slices.Clone(hostTimeDecls)
	for _, l := range layers {
		d = append(d, decl{l + ".cpu_s", "s", "lower"})
	}
	d = append(d,
		decl{"profile.cpu_s", "s", "lower"},
		decl{"trace.overhead_s", "s", "lower"},
		decl{"span.graph_build_s", "s", "lower"},
		decl{"span.machine_new_s", "s", "lower"},
		decl{"span.stats_s", "s", "lower"},
	)
	for _, a := range algorithms.All() {
		for _, m := range machineNames {
			d = append(d, decl{"span.run_s." + a.Name + "." + m, "s", "lower"})
		}
	}
	for _, s := range experiments.Registry() {
		d = append(d, decl{"span.experiment_s." + metricID(s.ID), "s", "lower"})
	}
	for _, m := range machineNames {
		for _, c := range countDecls {
			d = append(d, decl{c.name + "." + m, c.unit, c.better})
		}
	}
	d = append(d,
		decl{"experiments.cells", "count", "lower"},
		decl{"experiments.cell_hit_ratio", "ratio", "higher"},
		decl{"experiments.dataset_misses", "count", "lower"},
	)
	for _, a := range algorithms.All() {
		d = append(d, decl{"sim.speedup." + a.Name, "x", "higher"})
	}
	return append(d,
		decl{"sim_digest", "hash", "lower"},
		decl{"error_rate", "ratio", "lower"},
	)
}

// metricID turns an experiment ID such as "Figure 4a" into a metric-name
// component ("Figure_4a").
func metricID(id string) string { return strings.ReplaceAll(id, " ", "_") }

// phase is what the measured loop saw: timing, instructions and peak
// resident set of the untraced reps, wall time of the traced reps, and
// the traced reps' profiled CPU seconds per layer.
type phase struct {
	walls, cpus, rss []float64
	instrs           []float64
	tracedWalls      []float64
	layerCPU         map[string]float64
	profileCPU       float64
}

// loop runs reps until cfg.seconds have passed and at least minReps of
// each kind ran. With trace set, every second rep runs under the CPU
// profiler, so traced and untraced reps see the same host conditions;
// the profile covers the rep alone, not the checks between reps. Each
// rep starts from a collected heap returned to the OS, so reps do not
// pay for each other's garbage and each has its own peak resident set
// (when rss is non-nil). With instrs non-nil, the instructions of each
// untraced rep are counted too.
func loop(w workload, cfg runConfig, trace bool, rss *rssSampler, instrs *instrCounter, t *tally) (phase, error) {
	p := phase{layerCPU: map[string]float64{}}
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(p.walls) >= cfg.minReps && (!trace || len(p.tracedWalls) >= cfg.minReps)
		if enough && time.Since(start).Seconds() >= cfg.seconds {
			return p, nil
		}
		traced := trace && i%2 == 1
		debug.FreeOSMemory()
		if rss != nil {
			rss.take()
		}
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return p, fmt.Errorf("cpu profile: %w", err)
			}
		}
		var i0 float64
		if instrs != nil && !traced {
			if err := instrs.refresh(); err != nil {
				return p, err
			}
			var err error
			if i0, err = instrs.read(); err != nil {
				return p, err
			}
		}
		c0 := cpuSeconds()
		t0 := time.Now()
		err := w.rep(traced)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return p, err
		}
		if instrs != nil && !traced {
			i1, err := instrs.read()
			if err != nil {
				return p, err
			}
			p.instrs = append(p.instrs, i1-i0)
		}
		if traced {
			p.tracedWalls = append(p.tracedWalls, wall)
			byLayer, total, err := foldProfile(prof.Bytes())
			if err != nil {
				return p, err
			}
			for l, v := range byLayer {
				p.layerCPU[l] += v
			}
			p.profileCPU += total
		} else {
			p.walls = append(p.walls, wall)
			p.cpus = append(p.cpus, cpu)
			if rss != nil {
				p.rss = append(p.rss, rss.take())
			}
		}
		w.check(t)
	}
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "suite":
		return &suiteBench{scale: cfg.suiteScale, seed: cfg.seed, par: runtime.NumCPU()}, nil
	case "powerlaw":
		return newGraphBench("apu", cfg.vertexLog2, cfg.seed, highRandomAlgs), nil
	case "road":
		return newGraphBench("road", cfg.vertexLog2, cfg.seed, nil), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, powerlaw or road)", cfg.workload)
}

// measure runs one workload as cfg asks and returns its metrics.
func measure(cfg runConfig, log io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	// Set-up repeats until setupSeconds have passed and it ran at least
	// minSetups times, so a fast set-up gets many samples.
	var setups []float64
	start := time.Now()
	for len(setups) < cfg.minSetups || time.Since(start).Seconds() < cfg.setupSeconds {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var t tally
	res := &result{}
	if !cfg.trace {
		instrs, err := newInstrCounter()
		if err != nil {
			return nil, err
		}
		defer instrs.close()
		sampler := startRSS(5 * time.Millisecond)
		p, err := loop(w, cfg, false, sampler, instrs, &t)
		if sampler != nil {
			sampler.close()
		}
		if err != nil {
			return nil, err
		}
		if sampler == nil {
			p.rss = []float64{maxRSSMB()}
		}
		acc, err := w.accesses()
		if err != nil {
			return nil, err
		}
		ins := median(p.instrs)
		res.add("host_ginstr", "Ginstr", ins/1e9, len(p.instrs))
		res.add("instr_per_access", "instr", ins/float64(acc), len(p.instrs))
		res.add("setup_s", "s", median(setups), len(setups))
		res.add("peak_rss_mb", "MB", median(p.rss), len(p.rss))
		res.notes = append(res.notes, fmt.Sprintf(
			"host time (not bounded; see --trace 1): wall_s %.3f cpu_s %.3f maccesses_per_cpu_s %.3f",
			median(p.walls), median(p.cpus), float64(acc)/1e6/median(p.cpus)))
	} else {
		p, err := loop(w, cfg, true, nil, nil, &t)
		if err != nil {
			return nil, err
		}
		acc, err := w.accesses()
		if err != nil {
			return nil, err
		}
		values := map[string]float64{}
		samples := map[string]int{}
		set := func(name string, v float64, n int) { values[name], samples[name] = v, n }
		mps := make([]float64, len(p.cpus))
		for i, c := range p.cpus {
			mps[i] = float64(acc) / 1e6 / c
		}
		set("wall_s", median(p.walls), len(p.walls))
		set("cpu_s", median(p.cpus), len(p.cpus))
		set("maccesses_per_cpu_s", median(mps), len(mps))
		n := len(p.tracedWalls)
		for _, l := range layers {
			set(l+".cpu_s", p.layerCPU[l]/float64(n), n)
		}
		set("profile.cpu_s", p.profileCPU/float64(n), n)
		set("trace.overhead_s", median(p.tracedWalls)-median(p.walls), n)
		w.layerMetrics(set)
		set("sim_digest", float64(w.digest()&(1<<48-1)), 1)
		set("error_rate", float64(t.failed)/float64(t.attempted), 1)
		for _, d := range perLayerDecls() {
			n := samples[d.name]
			if n == 0 {
				n = 1
			}
			res.add(d.name, d.unit, values[d.name], n)
		}
	}
	res.attempted, res.failed = t.attempted, t.failed
	res.digest = w.digest()
	res.notes = append(res.notes, w.notes()...)
	for _, e := range t.errs {
		fmt.Fprintln(log, "perfbench: check failed:", e)
	}
	return res, nil
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
