package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"omega/internal/algorithms"
	"omega/internal/core"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/memsys"
	"omega/internal/obs"
)

// TestCellSingleflight pins the dedup contract under -race: N
// goroutines requesting the same not-yet-built cell must trigger
// exactly one build, with every other request blocking on the in-flight
// builder and sharing its result.
func TestCellSingleflight(t *testing.T) {
	c := NewCellCache()
	key := CellKey{Config: "cfg", Workload: "w"}
	var builds atomic.Uint64
	release := make(chan struct{})
	const n = 16
	cells := make([]Cell, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i], _ = c.getOrRun(key, func() Cell {
				builds.Add(1)
				<-release // hold every other goroutine in the dedup path
				return Cell{Stats: core.MachineStats{Cycles: 42}}
			})
		}()
	}
	// Let the non-builders reach the wait before releasing the build, so
	// the dedup path is actually exercised (not just sequential hits).
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("builds=%d misses=%d, want exactly one build", builds.Load(), st.Misses)
	}
	if st.Hits+st.Dedups != n-1 {
		t.Fatalf("hits=%d dedups=%d, want %d shared requests", st.Hits, st.Dedups, n-1)
	}
	for i, cell := range cells {
		if cell.Stats.Cycles != 42 {
			t.Fatalf("goroutine %d got stats %+v, want the shared build", i, cell.Stats)
		}
	}
	if st.Resident != 1 {
		t.Fatalf("resident=%d, want 1", st.Resident)
	}
}

// TestCellBuildPanicLeavesKeyRebuildable pins the failure contract: a
// builder panic evicts the entry (the key stays rebuildable) and
// concurrent waiters retry instead of sharing the panic — one of them
// becomes the next builder.
func TestCellBuildPanicLeavesKeyRebuildable(t *testing.T) {
	c := NewCellCache()
	key := CellKey{Config: "cfg", Workload: "w"}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder panic did not propagate")
			}
		}()
		c.getOrRun(key, func() Cell { panic("boom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("failed build left %d entries resident", c.Len())
	}

	// Concurrent waiters on a panicking builder must retry; exactly one
	// retry rebuilds, the rest share it.
	var builds atomic.Uint64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.getOrRun(key, func() Cell {
			close(started)
			time.Sleep(10 * time.Millisecond) // let waiters pile up
			panic("boom")
		})
	}()
	<-started
	const n = 4
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells[i], _ = c.getOrRun(key, func() Cell {
				builds.Add(1)
				return Cell{Stats: core.MachineStats{Cycles: 7}}
			})
		}()
	}
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("rebuilds=%d, want exactly one after the failed build", b)
	}
	for i, cell := range cells {
		if cell.Stats.Cycles != 7 {
			t.Fatalf("waiter %d got %+v, want the retried build", i, cell.Stats)
		}
	}
}

// accessSinkStub upgrades a buffer to the per-access extension, which
// makes attached runs uncacheable (replay cannot synthesize events).
type accessSinkStub struct{ obs.Buffer }

func (s *accessSinkStub) Access(memsys.Cycles, memsys.Access, memsys.Result) {}

var _ obs.AccessSink = (*accessSinkStub)(nil)

// TestUncacheableReasons pins the bypass classification: non-dataset
// graphs, non-registry workloads, and event-hungry sinks must simulate
// directly, each under its counted reason.
func TestUncacheableReasons(t *testing.T) {
	spec, _ := algorithms.ByName("PageRank")
	o := Options{Scale: 9, Seed: 42, Coverage: 0.20}.Defaults()
	pr := prepareDataset(mustDataset("rmat"), o, false)

	if r := o.uncacheableReason(spec, pr); r != "" {
		t.Fatalf("registry spec on keyed dataset classified %q, want cacheable", r)
	}
	if r := o.uncacheableReason(spec, prepared{g: pr.g}); r != UncacheableGraph {
		t.Fatalf("unkeyed graph classified %q, want %q", r, UncacheableGraph)
	}
	if r := o.uncacheableReason(customSpec(spec), pr); r != UncacheableWorkload {
		t.Fatalf("custom workload classified %q, want %q", r, UncacheableWorkload)
	}
	oSink := o
	oSink.sink = &accessSinkStub{}
	if r := oSink.uncacheableReason(spec, pr); r != UncacheableSink {
		t.Fatalf("access sink classified %q, want %q", r, UncacheableSink)
	}
}

// TestDispatchOrder pins the longest-job-first scheduling: hinted specs
// dispatch by descending wall time, unhinted specs first in declaration
// order, and an empty hint map preserves declaration order exactly.
func TestDispatchOrder(t *testing.T) {
	specs := []Spec{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}}
	if got := dispatchOrder(specs, nil); !equalInts(got, []int{0, 1, 2, 3}) {
		t.Fatalf("no hints: dispatch %v, want declaration order", got)
	}
	hints := map[string]time.Duration{
		"a": 1 * time.Second,
		"b": 5 * time.Second,
		"d": 3 * time.Second,
	}
	// c is unhinted → first; then b (5s), d (3s), a (1s).
	if got := dispatchOrder(specs, hints); !equalInts(got, []int{2, 1, 3, 0}) {
		t.Fatalf("dispatch %v, want [2 1 3 0] (unhinted first, then longest-first)", got)
	}
	tie := map[string]time.Duration{"a": time.Second, "b": time.Second, "c": 2 * time.Second, "d": time.Second}
	if got := dispatchOrder(specs, tie); !equalInts(got, []int{2, 0, 1, 3}) {
		t.Fatalf("dispatch %v, want stable declaration order on equal hints", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// customSpec returns spec with a fresh Run closure wrapping the
// original — same behaviour, different code identity, which is exactly
// what makes it uncacheable.
func customSpec(spec algorithms.Spec) algorithms.Spec {
	orig := spec.Run
	spec.Run = func(fw *ligra.Framework) core.MachineStats { return orig(fw) }
	return spec
}

// TestGoldenBitIdentityWithCellCache re-runs the full registry with one
// shared cell cache and compares every table byte-for-byte against the
// same goldens the uncached test uses. This pins the tentpole contract:
// cached and replayed cells are indistinguishable from fresh
// simulations, and the sharing must actually occur (hits > 0).
func TestGoldenBitIdentityWithCellCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden comparison skipped in -short mode")
	}
	cells := NewCellCache()
	opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Cells: cells}
	for _, spec := range Registry() {
		spec := spec
		t.Run(strings.ReplaceAll(spec.ID, " ", "_"), func(t *testing.T) {
			name := strings.ReplaceAll(strings.ToLower(spec.ID), " ", "_") + ".tsv"
			path := filepath.Join("testdata", "golden-scale9-seed42", name)
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			tbl := spec.Run(opts)
			if tbl == nil {
				t.Fatal("experiment returned nil table")
			}
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			if got := tbl.TSV(); got != string(want) {
				t.Errorf("output diverged from golden %s with cell cache enabled\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
		})
	}
	st := cells.Stats()
	if st.Hits == 0 {
		t.Errorf("cell cache saw no hits across the registry; stats %+v", st)
	}
	if st.Misses == 0 {
		t.Errorf("cell cache saw no builds; stats %+v", st)
	}
	t.Logf("cell cache across registry: %d hits / %d misses (%d dedup), %d resident, duplicate rate %.1f%%, uncacheable %v",
		st.Hits, st.Misses, st.Dedups, st.Resident, 100*st.DuplicateRate(), st.Uncacheable)
}

// TestGoldenMetricsWithCellCache pins the replay contract for metric
// streams: with a shared cell cache, the metrics-attached goldens must
// stay byte-identical even when a spec's cells replay from another
// experiment's build (the subset includes Figure 3 and Figure 14, which
// share rmat baseline cells under different run-labeling conventions).
func TestGoldenMetricsWithCellCache(t *testing.T) {
	if testing.Short() {
		t.Skip("golden comparison skipped in -short mode")
	}
	cells := NewCellCache()
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
			opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Metrics: buf, Cells: cells}
			tbl := RunSafe(context.Background(), spec, opts, 0)
			if tbl.Failed {
				t.Fatalf("experiment failed: %s", tbl.Title)
			}
			if got := tbl.TSV(); got != string(want) {
				t.Errorf("output diverged from golden %s with cell cache + metrics\ngot:\n%s\nwant:\n%s",
					path, got, want)
			}
			goldenPath := filepath.Join("testdata", "golden-scale9-seed42", "metrics",
				strings.ReplaceAll(strings.ToLower(id), " ", "_")+".tsv")
			if _, err := os.Stat(goldenPath); err == nil {
				wantStream, err := os.ReadFile(goldenPath)
				if err != nil {
					t.Fatal(err)
				}
				if got := encodeTSV(t, buf.Drain()); got != string(wantStream) {
					t.Errorf("metric stream diverged from golden %s with cell cache enabled", goldenPath)
				}
			} else {
				samples := buf.Drain()
				if len(samples) == 0 {
					t.Fatalf("no metric samples emitted for %s", id)
				}
				for _, s := range samples {
					if s.Experiment != id {
						t.Fatalf("sample not stamped with experiment ID: %+v", s)
					}
				}
			}
		})
	}
	if st := cells.Stats(); st.Hits == 0 {
		t.Errorf("metrics subset produced no cell hits (Figure 3 / Figure 14 should share); stats %+v", st)
	}
}

// TestSuiteCellCacheEquivalence pins the kill switch: a suite run with
// NoCellCache must produce tables identical to the cached default, and
// the default must actually exercise the cache.
func TestSuiteCellCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run suite comparison skipped in -short mode")
	}
	var specs []Spec
	for _, id := range []string{"Figure 3", "Figure 14", "Figure 19"} {
		spec, ok := SpecByID(id)
		if !ok {
			t.Fatalf("unknown spec %q", id)
		}
		specs = append(specs, spec)
	}
	render := func(noCells bool) ([]string, *SuiteResult) {
		opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Parallelism: 2, NoCellCache: noCells}
		res := Suite(context.Background(), specs, opts, nil)
		if n := res.Failed(); n > 0 {
			t.Fatalf("suite (noCells=%v): %d experiments failed", noCells, n)
		}
		out := make([]string, len(res.Tables))
		for i, tbl := range res.Tables {
			out[i] = tbl.TSV()
		}
		return out, res
	}
	cached, cres := render(false)
	direct, dres := render(true)
	for i := range cached {
		if cached[i] != direct[i] {
			t.Errorf("%s diverged between cached and -no-cell-cache runs", specs[i].ID)
		}
	}
	if cres.Cells == nil {
		t.Fatal("default suite did not install a cell cache")
	}
	if st := cres.Cells.Stats(); st.Hits+st.Dedups == 0 {
		t.Errorf("default suite saw no cell sharing; stats %+v", st)
	}
	if dres.Cells != nil {
		t.Error("NoCellCache suite still carried a cell cache")
	}
	var cellTotal uint64
	for _, te := range cres.Telemetry {
		cellTotal += te.Cells
	}
	if cellTotal == 0 {
		t.Error("telemetry recorded no cells for the cached suite")
	}
}

// TestSkewFiguresReplayCells pins the access-skew artifact: Figures 4b
// and 5 read the skew recorded at cell build, so after the experiments
// that build their baseline cells they simulate nothing, and the share
// every cell path returns equals the one measured on a directly built
// profiling machine.
func TestSkewFiguresReplayCells(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-figure cell replay skipped in -short mode")
	}
	cells := NewCellCache()
	opts := Options{Scale: 9, Seed: 42, Coverage: 0.20, Cells: cells}
	// replays runs build then skew and returns skew's table and cache
	// traffic.
	replays := func(build, skew func(Options) *Table) (tbl *Table, hits, misses uint64) {
		build(opts)
		before := cells.Stats()
		tbl = skew(opts)
		after := cells.Stats()
		return tbl, after.Hits - before.Hits, after.Misses - before.Misses
	}
	// Figure 4b has one row per algorithm, each the baseline cell Figure
	// 4a already built.
	if _, hits, misses := replays(Figure4a, Figure4b); hits != uint64(len(algorithms.All())) || misses != 0 {
		t.Errorf("Figure 4b after Figure 4a: %d hits, %d misses; want %d hits, 0 misses",
			hits, misses, len(algorithms.All()))
	}
	// Every Figure 5 grid slot other than "-" is a baseline cell that
	// Figure 14 already built.
	tbl, hits, misses := replays(Figure14, Figure5)
	var slots uint64
	for _, row := range tbl.Rows {
		for _, v := range row[1:] { // row[0] is the dataset name
			if v != "-" {
				slots++
			}
		}
	}
	if hits != slots || misses != 0 {
		t.Errorf("Figure 5 after Figure 14: %d hits, %d misses; want %d hits, 0 misses", hits, misses, slots)
	}

	spec, _ := algorithms.ByName("PageRank")
	o := Options{Scale: 9, Seed: 42, Coverage: 0.20}.Defaults()
	pr := prepareDataset(mustDataset("rmat"), o, false)
	cfg, _ := core.ScaledPair(pr.g.NumVertices(), spec.VtxPropBytes, o.Coverage)
	m := core.NewMachine(cfg)
	m.EnableVertexProfile(pr.g.NumVertices())
	wantStats := spec.Run(ligra.New(m, pr.g))
	want := graph.AccessShareToTopK(pr.g, m.VertexProfile(), 0.20)
	if want <= 0 || want > 1 {
		t.Fatalf("direct top-20%% share %v, want in (0, 1]", want)
	}

	check := func(path string, o Options) {
		t.Helper()
		st, got := runCellSkew(o, spec, pr, cfg, pr.g.Name)
		if got != want {
			t.Errorf("%s: share %v, want %v", path, got, want)
		}
		if st.Cycles != wantStats.Cycles {
			t.Errorf("%s: %d cycles, want %d", path, st.Cycles, wantStats.Cycles)
		}
	}
	check("cache off", o)
	on := o
	on.Cells = NewCellCache()
	check("cache build", on)
	check("cache replay", on)
	if st := on.Cells.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache on: %d misses, %d hits; want one build and one replay", st.Misses, st.Hits)
	}
	sink := on
	sink.Cells = NewCellCache()
	sink.sink = &accessSinkStub{}
	check("uncacheable sink", sink)
	if n := sink.Cells.Stats().Uncacheable[UncacheableSink]; n != 1 {
		t.Errorf("uncacheable sink path counted %d bypasses, want 1", n)
	}
}

// encodeTSV renders samples through the TSV writer for stream
// comparison.
func encodeTSV(t *testing.T, samples []obs.MetricSample) string {
	t.Helper()
	var sb strings.Builder
	w := obs.NewTSVWriter(&sb)
	for _, s := range samples {
		w.Sample(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
