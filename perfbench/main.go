// Command perfbench is the repository benchmark. It drives the OMEGA
// simulator from outside, through the public functions of its packages,
// on one of three workloads, and prints host-work, memory and per-layer
// metrics for it.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload powerlaw --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen):
//
//	suite     experiments.Suite over the full registry at scale 12
//	powerlaw  the six high-random-intensity algorithms on the apu R-MAT graph
//	road      all eight algorithms on the road grid graph
//
// The load is a closed loop with one caller: each repetition starts when
// the previous one ends, and repetitions continue until --seconds have
// passed (at least minReps of them). --trace 0 reports the end-to-end
// metrics: host instructions per repetition and per simulated access,
// set-up time and peak resident set. --trace 1 reports the per-layer
// metrics of a traced run: host times, CPU per layer from a CPU
// profile, spans around the public calls, exact simulated counts, and
// the tracing overhead. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// sizes fixes the input sizes of every workload; the smoke test shrinks
// them.
type sizes struct {
	// suiteScale is experiments.Options.Scale of the suite workload.
	suiteScale int
	// vertexLog2 is log2 of the vertex count of the powerlaw and road
	// graphs.
	vertexLog2 int
	// Set-up runs at least minSetups times and until setupSeconds have
	// passed; setup_s is the median.
	minSetups    int
	setupSeconds float64
	// minReps is the fewest measured repetitions per phase.
	minReps int
}

var defaultSizes = sizes{suiteScale: 12, vertexLog2: 14, minSetups: 3, setupSeconds: 2, minReps: 3}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: suite, powerlaw or road")
	seed := fs.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 20, "seconds of measured repetitions")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: defaultSizes}
	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	writeReport(w, cfg, res)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes
}

// metric is one reported value: a median over samples repetitions, a
// per-repetition mean for the profile's CPU split, or an exact count
// (samples 1).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// result is a finished run: every metric in the order the report prints
// them, the correctness tally, and the notes printed beside the metrics.
type result struct {
	metrics   []metric
	attempted int
	failed    int
	digest    uint64
	notes     []string
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, samples: samples})
}

// host records where and how a result was measured, so results from
// different hosts or configurations are told apart rather than mixed.
type host struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	SuiteScale int     `json:"suite_scale"`
	VertexLog2 int     `json:"vertex_log2"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
}

func hostOf(cfg runConfig) host {
	return host{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		SuiteScale: cfg.suiteScale, VertexLog2: cfg.vertexLog2,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit(),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or GOARCH where
// that file does not exist.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(rest, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// writeReport prints the host record, one line per metric with its
// median, unit and sample count, the notes, and last the JSON result.
func writeReport(w io.Writer, cfg runConfig, res *result) {
	h, _ := json.Marshal(hostOf(cfg)) // a struct of plain fields always marshals
	fmt.Fprintf(w, "host %s\n", h)
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %-40s %18.6f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Fprintf(w, "sim_digest %016x\n", res.digest)
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "error_rate %g (%d failed of %d attempted)\n", errRate, res.failed, res.attempted)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, make(map[string]value, len(res.metrics))}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(out) // finite floats and strings always marshal
	fmt.Fprintf(w, "%s\n", line)
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
