package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"omega/internal/obs"
)

// metricsGoldenSpecs is the representative subset re-run with a metrics
// sink attached: it covers the plain two-machine path (Figure 14), the
// TMAM breakdown (Figure 3), a skew figure that replays Figure 3's cells
// under the same bare dataset-name label (Figure 4b), the
// concurrent-variant path (Ablation A3), and a machine-less experiment
// (Table I) that emits only harness samples. The full-registry no-sink comparison is TestGoldenBitIdentity.
var metricsGoldenSpecs = []string{"Table I", "Figure 3", "Figure 4b", "Figure 14", "Ablation A3"}

// TestGoldenBitIdentityWithMetrics pins the observer-effect contract:
// attaching a metrics sink must not shift a single simulated number.
// Each experiment in the subset runs under RunSafe with a sink attached
// and its TSV rendering is compared byte-for-byte against the same
// goldens the no-sink test uses; the sink must also actually receive
// per-iteration samples for every experiment.
func TestGoldenBitIdentityWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("golden comparison skipped in -short mode")
	}
	for _, id := range metricsGoldenSpecs {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		t.Run(strings.ReplaceAll(id, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(id), " ", "_") + ".tsv"
			path := filepath.Join("testdata", "golden-scale9-seed42", name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			buf := obs.NewBuffer()
			opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Metrics: buf}
			tbl := RunSafe(context.Background(), spec, opts, 0)
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			if got := tbl.TSV(); got != string(want) {
				t.Errorf("output diverged from golden %s with metrics attached\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
			samples := buf.Drain()
			if len(samples) == 0 {
				t.Fatalf("no metric samples emitted for %s", id)
			}
			for _, s := range samples {
				if s.Experiment != id {
					t.Fatalf("sample not stamped with experiment ID: %+v", s)
				}
			}
		})
	}
}

// TestSuiteMetricsDeterminism pins the sink-ordering contract: a
// parallel suite run and a sequential one must deliver byte-identical
// sample streams to the user's sink — per-run buffers are sorted
// canonically and flushed in spec order regardless of worker
// interleaving.
func TestSuiteMetricsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run suite comparison skipped in -short mode")
	}
	var specs []Spec
	for _, id := range metricsGoldenSpecs {
		spec, _ := SpecByID(id)
		specs = append(specs, spec)
	}
	encode := func(parallelism int) []byte {
		buf := obs.NewBuffer()
		opts := Options{
			Scale: 9, Seed: 42, Coverage: 0.20,
			Parallelism: parallelism, Metrics: buf,
		}
		res := Suite(context.Background(), specs, opts, nil)
		if n := res.Failed(); n > 0 {
			t.Fatalf("suite at parallelism %d: %d experiments failed", parallelism, n)
		}
		var out bytes.Buffer
		w := obs.NewJSONLWriter(&out)
		for _, s := range buf.Drain() {
			w.Sample(s)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	seq := encode(1)
	par := encode(4)
	if !bytes.Equal(seq, par) {
		t.Errorf("parallel suite sample stream diverged from sequential\nsequential %d bytes, parallel %d bytes",
			len(seq), len(par))
	}
	if len(seq) == 0 {
		t.Fatal("suite emitted no samples")
	}
}
