package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeclarationsMatchBenchmarkJSON keeps the metrics the program
// reports and the metrics BENCHMARK.json declares the same list.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var e2e, layer []decl
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, decl{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(e2e, endToEndDecls()) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program declares %v", e2e, endToEndDecls())
	}
	if !slices.Equal(layer, perLayerDecls()) {
		var want bytes.Buffer
		for _, d := range perLayerDecls() {
			want.WriteString(`    {"name": "` + d.name + `", "unit": "` + d.unit + `", "better": "` + d.better + `"},` + "\n")
		}
		t.Errorf("per_layer in BENCHMARK.json differs from the program's declarations; want:\n%s", want.String())
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, []string{"suite", "powerlaw", "road"}) {
		t.Errorf("workloads = %v", names)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that it reports every declared metric with its unit, fails no
// operation, and that the per-layer CPU adds up to the profile total.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	tiny := sizes{suiteScale: 9, vertexLog2: 10, minSetups: 2, minReps: 2}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 7, seconds: 0.01, trace: trace, sizes: tiny}
			var log bytes.Buffer
			res, err := measure(cfg, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed:\n%s", w.Name, trace, res.failed, res.attempted, log.String())
			}
			var out bytes.Buffer
			writeReport(&out, cfg, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.Name, err)
			}
			if !last.Correct || last.Failed != 0 {
				t.Errorf("%s trace=%v: result not correct", w.Name, trace)
			}
			if !strings.Contains(out.String(), "error_rate 0 ") {
				t.Errorf("%s trace=%v: error_rate is not 0", w.Name, trace)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(last.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := last.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, got, unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, got.Value)
				}
			}
			if trace {
				var sum float64
				for _, l := range layers {
					sum += last.Metrics[l+".cpu_s"].Value
				}
				if total := last.Metrics["profile.cpu_s"].Value; math.Abs(sum-total) > 1e-9*(1+total) {
					t.Errorf("%s: layer CPU sums to %v, profile total %v", w.Name, sum, total)
				}
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "1"},
		{"--workload", "road", "--trace", "2"},
		{"--workload", "road", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a failure and no result", args, code, out.String())
		}
	}
}

// TestFoldTableCoversEveryPackage requires every package of the module to
// map to a layer (or to charge its caller), so no simulator code falls
// into the unattributed bucket.
func TestFoldTableCoversEveryPackage(t *testing.T) {
	valid := map[string]bool{chargeCaller: true}
	for _, l := range layers {
		valid[l] = true
	}
	for pkg, l := range packageLayers {
		if !valid[l] || l == "unattributed" || l == "runtime" {
			t.Errorf("package %s maps to %q, not a simulator layer", pkg, l)
		}
	}
	for _, r := range coreFuncLayers {
		if !valid[r.layer] {
			t.Errorf("core prefix %s maps to unknown layer %q", r.prefix, r.layer)
		}
	}
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || d.Name() == "testdata" {
			return err
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				rel, _ := filepath.Rel("..", path)
				pkg := "omega/" + filepath.ToSlash(rel)
				if _, ok := packageLayers[pkg]; !ok {
					t.Errorf("package %s has no layer in packageLayers", pkg)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "omega/internal/memsys/cache.(*Cache).install"}, "runtime"},
		{[]string{"omega/internal/memsys/cache.(*Cache).install"}, "memsys.cache"},
		{[]string{"sort.insertionSort", "omega/internal/graph/reorder.Compute"}, "graph"},
		{[]string{"omega/internal/stats.(*Counter).Inc", "omega/internal/memsys/noc.(*Crossbar).Send"}, "memsys.noc"},
		{[]string{"omega/internal/core.(*coreHeap).down", "omega/internal/core.(*Machine).ParallelForGrain"}, "core.sched"},
		{[]string{"omega/internal/core.(*cachePath).miss"}, "core.hierarchy"},
		{[]string{"omega/internal/core.(*Machine).fastRead"}, "core.access"},
		{[]string{"omega/internal/memsys.(*Queue).Enqueue"}, "memsys.queue"},
		{[]string{"omega/internal/pisc.(*Engine).Execute"}, "scratchpad"},
		{[]string{"main.main", "runtime.main"}, "unattributed"},
	} {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}
