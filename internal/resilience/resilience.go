// Package resilience is the fault-campaign engine: it sweeps fault
// injection sites × rates × seeds over a workload, classifies every run
// against a fault-free golden (clean / detected-corrected /
// detected-degraded / crashed / silent-data-corruption), and applies a
// configurable recovery policy — bounded re-execution with exponential
// backoff from whole-machine checkpoints (core.Machine.Snapshot/Restore).
//
// The engine deliberately does not import the experiments package: the
// experiments layer provides the workload (dataset + machine config +
// algorithm) and renders the campaign report as a table; the engine owns
// injection sweep, output validation, classification, and recovery.
package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"omega/internal/core"
	"omega/internal/faults"
	"omega/internal/graph"
	"omega/internal/ligra"
	"omega/internal/pisc"
)

// Outcome classifies one run of the workload under injection.
type Outcome int

const (
	// Clean: outputs and the timing signature match the golden exactly
	// and no fault event fired (or none landed anywhere observable).
	Clean Outcome = iota
	// DetectedCorrected: faults fired and were caught by a detection
	// mechanism (ECC, NoC retransmission, parity, directory scrub)
	// without degrading results.
	DetectedCorrected
	// DetectedDegraded: faults were detected but left permanent damage
	// the run worked around — scratchpad lines degraded to the cache
	// hierarchy, or NoC messages dropped past the retry budget.
	DetectedDegraded
	// Crashed: the run panicked.
	Crashed
	// SilentDataCorruption: algorithm outputs diverged from the golden,
	// a DRAM double-bit flip escaped ECC, or the timing signature
	// diverged with zero detections — wrong results, no alarm.
	SilentDataCorruption
	// NumOutcomes sizes outcome histograms.
	NumOutcomes
)

// String names the outcome for tables.
func (o Outcome) String() string {
	switch o {
	case Clean:
		return "clean"
	case DetectedCorrected:
		return "detected-corrected"
	case DetectedDegraded:
		return "detected-degraded"
	case Crashed:
		return "crashed"
	case SilentDataCorruption:
		return "silent-data-corruption"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// failed reports whether the outcome warrants a recovery re-execution.
func (o Outcome) failed() bool { return o == Crashed || o == SilentDataCorruption }

// Policy is the recovery policy: how many re-executions a failed run may
// consume and what each one costs.
type Policy struct {
	// MaxRetries bounds re-executions per run (0 = no recovery).
	MaxRetries int
	// BackoffCycles is the simulated-cycle cost charged before the first
	// re-execution; each further retry doubles it (exponential backoff).
	BackoffCycles uint64
	// Tolerance is the relative error allowed when comparing float-valued
	// outputs (PageRank rank vectors) against the golden; integer-valued
	// outputs (BFS/SSSP distances, CC labels) must match exactly.
	Tolerance float64
}

// DefaultPolicy matches the campaign defaults.
func DefaultPolicy() Policy {
	return Policy{MaxRetries: 3, BackoffCycles: 1024, Tolerance: 1e-9}
}

// Workload is one (machine, graph, algorithm) combination under test.
// Config's fault rates must be zero — the campaign installs per-cell
// fault configurations itself.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Config is the machine configuration (fault rates zero). Its fault
	// model settings (Faults.DisableDirScrub, DirScrubCycles, ...) carry
	// into every injected run; RunOne sets only the seed and one rate.
	Config core.Config
	// Graph is the prepared input graph (shared read-only).
	Graph *graph.Graph
	// Run executes the algorithm on a freshly bound framework and returns
	// its stats plus the output vectors to validate against the golden —
	// the algorithm's functional result (rank vector, distance array,
	// component labels), not its scratch state. Returning nil outputs
	// falls back to the framework's registered property arrays, which is
	// only correct for algorithms whose result lives in a property array
	// at the end of the run (PageRank, notably, zeroes its only property
	// every iteration and keeps the ranks in plain memory — a nil-output
	// PageRank workload would validate an all-zero vector and miss every
	// ALU corruption). Returned slices must not alias live machine state.
	Run func(fw *ligra.Framework) (core.MachineStats, [][]pisc.Value)
}

// outputsOf resolves a run's validation outputs: the workload-provided
// vectors, or deep copies of every registered property array when the
// workload returned none.
func outputsOf(fw *ligra.Framework, outputs [][]pisc.Value) [][]pisc.Value {
	if outputs != nil {
		return outputs
	}
	for _, p := range fw.Props() {
		outputs = append(outputs, append([]pisc.Value(nil), p.Raw()...))
	}
	return outputs
}

// Golden is the fault-free reference a campaign validates against.
type Golden struct {
	// Stats is the fault-free run's statistics.
	Stats core.MachineStats
	// Outputs are deep copies of every property array after the run.
	Outputs [][]pisc.Value
	// Signature is the normalized stats encoding (fault fields zeroed);
	// any surviving timing divergence shows up as a signature mismatch.
	Signature []byte
	// Digests is the per-iteration state-digest trail.
	Digests []uint64
}

// RunGolden executes the workload fault-free and captures the reference.
func RunGolden(w Workload, ctx context.Context) (*Golden, error) {
	if w.Config.Faults.Enabled() {
		return nil, fmt.Errorf("resilience: workload config has fault rates set")
	}
	m, err := core.NewMachineChecked(w.Config)
	if err != nil {
		return nil, err
	}
	m.AttachContext(ctx)
	m.EnableIterationDigests()
	fw := ligra.New(m, w.Graph)
	st, outputs := w.Run(fw)
	return &Golden{
		Stats:     st,
		Outputs:   outputsOf(fw, outputs),
		Signature: signatureOf(st),
		Digests:   m.DigestTrail(),
	}, nil
}

// signatureOf normalizes stats for divergence detection: the fault event
// log and degradation count are zeroed (they are *supposed* to differ
// under injection — what must not silently differ is everything else).
func signatureOf(st core.MachineStats) []byte {
	st.Faults = faults.Events{}
	st.SPDegraded = 0
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

// RunReport describes one (site, rate, seed) run through the recovery
// policy.
type RunReport struct {
	Site faults.Site
	Rate float64
	Seed uint64
	// First is the first attempt's classification; Final is the outcome
	// after recovery re-executions (equal to First when none ran).
	First, Final Outcome
	// Attempts counts executions (1 = no recovery needed or allowed).
	Attempts int
	// OverheadCycles is the recovery cost: the wasted cycles of failed
	// attempts plus exponential backoff between re-executions.
	OverheadCycles uint64
	// DivergeIter is the first iteration whose state digest differs from
	// the golden trail on the first failed attempt (-1 when unknown or
	// when the run never diverged at an iteration boundary).
	DivergeIter int
}

// Recovered reports whether re-execution turned a failed run good.
func (r RunReport) Recovered() bool { return r.First.failed() && !r.Final.failed() }

// RunOne executes the workload under one (site, rate, seed) injection
// configuration, applying the recovery policy: a crashed or silently
// corrupted attempt rewinds the machine to its pristine checkpoint,
// re-keys the fault streams, pays exponential backoff, and re-executes,
// up to MaxRetries times.
func RunOne(w Workload, site faults.Site, rate float64, seed uint64, p Policy, g *Golden, ctx context.Context) RunReport {
	cfg := w.Config
	fc := w.Config.Faults
	fc.Seed = seed
	site.Apply(&fc, rate)
	cfg.Faults = fc
	m := core.NewMachine(cfg)
	m.AttachContext(ctx)
	m.EnableIterationDigests()
	pristine := m.Snapshot()

	rep := RunReport{Site: site, Rate: rate, Seed: seed, DivergeIter: -1}
	for attempt := 0; ; attempt++ {
		st, outputs, crashed := runAttempt(m, w)
		var out Outcome
		if crashed != nil {
			out = Crashed
		} else {
			out = classify(st, outputs, g, p.Tolerance)
		}
		if attempt == 0 {
			rep.First = out
			if out.failed() && rep.DivergeIter < 0 {
				rep.DivergeIter = firstDivergence(m.DigestTrail(), g.Digests)
			}
		}
		rep.Final = out
		rep.Attempts = attempt + 1
		if !out.failed() || attempt >= p.MaxRetries {
			return rep
		}
		// Recovery: charge the wasted attempt and the backoff, rewind to
		// the pristine checkpoint (which also rewinds the region allocator,
		// so the re-created framework lands on identical addresses), and
		// re-key the fault streams so the retry does not deterministically
		// replay the exact fault that killed this attempt.
		rep.OverheadCycles += uint64(m.ElapsedCycles()) + p.BackoffCycles<<uint(attempt)
		m.Restore(pristine)
		m.ReseedFaults(uint64(attempt + 1))
	}
}

// runAttempt runs the workload once, converting a panic into a crash
// verdict — except cooperative cancellations, which propagate.
func runAttempt(m *core.Machine, w Workload) (st core.MachineStats, outputs [][]pisc.Value, crashed any) {
	defer func() {
		if r := recover(); r != nil {
			if core.IsCancelled(r) {
				panic(r)
			}
			crashed = r
		}
	}()
	fw := ligra.New(m, w.Graph)
	st, outputs = w.Run(fw)
	outputs = outputsOf(fw, outputs)
	return
}

// classify applies the outcome taxonomy: wrong outputs or an escaped
// double-bit flip are silent corruption, as is a timing signature that
// diverged with zero detections; detected faults are degraded when they
// left permanent damage, corrected otherwise; everything else is clean.
func classify(st core.MachineStats, outputs [][]pisc.Value, g *Golden, tol float64) Outcome {
	ev := st.Faults
	detected := ev.Detected()
	switch {
	case !outputsMatch(outputs, g.Outputs, tol),
		ev.DRAMSilent > 0,
		detected == 0 && !bytesEqual(signatureOf(st), g.Signature):
		return SilentDataCorruption
	case detected > 0 && (st.SPDegraded > 0 || ev.NoCGaveUp > 0):
		return DetectedDegraded
	case detected > 0:
		return DetectedCorrected
	}
	return Clean
}

func bytesEqual(a, b []byte) bool {
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

// outputsMatch compares property arrays against the golden: exact first;
// values whose bit patterns decode to normal floats fall back to a
// relative-tolerance comparison (PageRank ranks accumulate in different
// orders never arise here — runs are deterministic — but recovered runs
// validate through the same path as the golden, so exactness holds; the
// float path exists for policy tolerance on rank vectors).
func outputsMatch(got, want [][]pisc.Value, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			a, b := got[i][j], want[i][j]
			if a == b {
				continue
			}
			if !floatsWithin(a.Float(), b.Float(), tol) {
				return false
			}
		}
	}
	return true
}

// floatsWithin reports |a-b| <= tol*max(|a|,|b|) for values that are
// plausibly floats: finite, non-NaN, and at least 1e-300 in magnitude
// (integer property values decode to denormals far below that, so they
// never take this fallback and stay exact-match).
func floatsWithin(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	ma, mb := math.Abs(a), math.Abs(b)
	if ma < 1e-300 || mb < 1e-300 {
		return false
	}
	diff := math.Abs(a - b)
	mx := ma
	if mb > mx {
		mx = mb
	}
	return diff <= tol*mx
}

// firstDivergence returns the first index where the trails differ, or the
// shorter length when one is a prefix of the other, or -1 when equal.
func firstDivergence(got, want []uint64) int {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}

// CellReport aggregates one (site, rate) sweep cell across seeds.
type CellReport struct {
	Site faults.Site
	Rate float64
	// Outcomes histograms the FIRST-attempt classification per run.
	Outcomes [NumOutcomes]int
	// Recovered counts runs whose re-executions turned a failure good.
	Recovered int
	// Unrecovered counts runs still failed after exhausting the budget.
	Unrecovered int
	// Reexecutions totals recovery attempts across the cell's runs.
	Reexecutions int
	// OverheadCycles totals recovery cost across the cell's runs.
	OverheadCycles uint64
	// Runs are the individual reports, in seed order.
	Runs []RunReport
}

// Campaign sweeps Sites × Rates × Seeds over one workload.
type Campaign struct {
	Workload Workload
	Sites    []faults.Site
	Rates    []float64
	Seeds    []uint64
	Policy   Policy
	// Parallel fans cells out to goroutines (each cell owns its machines;
	// results merge in declaration order, so reports are byte-identical
	// to a sequential sweep).
	Parallel bool
	// Ctx, when non-nil, cancels in-flight simulations cooperatively.
	Ctx context.Context
}

// Report is a completed campaign.
type Report struct {
	Golden *Golden
	Cells  []CellReport
}

// Run executes the campaign: one golden run, then every (site, rate)
// cell, each sweeping all seeds through the recovery policy.
func (c Campaign) Run() (*Report, error) {
	golden, err := RunGolden(c.Workload, c.Ctx)
	if err != nil {
		return nil, err
	}
	cells := make([]CellReport, len(c.Sites)*len(c.Rates))
	run := func(i int, site faults.Site, rate float64) {
		cell := CellReport{Site: site, Rate: rate}
		for _, seed := range c.Seeds {
			rep := RunOne(c.Workload, site, rate, seed, c.Policy, golden, c.Ctx)
			cell.Outcomes[rep.First]++
			cell.Reexecutions += rep.Attempts - 1
			cell.OverheadCycles += rep.OverheadCycles
			if rep.Recovered() {
				cell.Recovered++
			} else if rep.Final.failed() {
				cell.Unrecovered++
			}
			cell.Runs = append(cell.Runs, rep)
		}
		cells[i] = cell
	}
	if !c.Parallel || len(cells) < 2 {
		i := 0
		for _, site := range c.Sites {
			for _, rate := range c.Rates {
				run(i, site, rate)
				i++
			}
		}
	} else {
		panics := make([]any, len(cells))
		var wg sync.WaitGroup
		i := 0
		for _, site := range c.Sites {
			for _, rate := range c.Rates {
				wg.Add(1)
				go func(i int, site faults.Site, rate float64) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
						}
					}()
					run(i, site, rate)
				}(i, site, rate)
				i++
			}
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}
	return &Report{Golden: golden, Cells: cells}, nil
}
