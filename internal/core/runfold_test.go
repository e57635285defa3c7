package core

import (
	"fmt"
	"reflect"
	"testing"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/obs"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

// This file pins the run-fold batching contract of DESIGN.md §11: with
// batching enabled (the default) and disabled (Config.SerialAccess), a
// machine must produce bit-identical stats, level profiles, and metric
// samples for the same access script — across both machine models, and
// under fault injection.

// reads emits plain loads of r[base..base+n) in ascending order — the
// streaming loop shape every framework scan has.
func reads(c *Ctx, r *Region, base, n int) {
	for i := base; i < base+n; i++ {
		c.Read(r, i)
	}
}

// foldScript drives an adversarial mix through the fold windows: long
// streaming runs, interleaved Exec ticks, vtxProp traffic (never folds;
// on OMEGA it draws fault PRNG), cross-core ownership churn, writes and
// atomics that force flushes mid-stream, src reads, an iteration
// boundary, and a mid-script stats read (a flush point that must not
// disturb subsequent folding).
func foldScript(m *Machine, el, wt, vp *Region) {
	c0 := &Ctx{m: m, core: 0}
	c1 := &Ctx{m: m, core: 1}
	reads(c0, el, 0, 64) // line-granular memo folds
	for i := 0; i < 48; i++ {
		c0.Read(el, i)   // stream A
		c0.Read(wt, i)   // stream B alternating: probe folds when fault-free
		c0.Exec(2)       // Exec must not flush the window
		c0.Read(vp, i%8) // vtxProp interleaved: flush + per-access path
	}
	c1.Read(el, 3) // other core: flush, window migrates
	reads(c1, wt, 8, 40)
	c0.Write(el, 5) // store invalidates c1's folded line registry entry
	c1.Read(el, 5)  // must re-probe (registry re-validated), not replay
	for i := 0; i < 24; i++ {
		c0.Read(el, 64+i)
		c0.Atomic(vp, i%16) // non-foldable op: flush each time
	}
	for i := 0; i < 16; i++ {
		c0.ReadSrc(vp, i) // src reads never fold
	}
	_ = m.Stats()           // mid-script flush point
	reads(c0, el, 100, 200) // folding must resume after the stats read
	m.BeginIteration()
	reads(c0, el, 0, 32) // memo dropped; re-probe then fold
	for i := 0; i < 16; i++ {
		c0.Write(wt, i)
	}
	m.Barrier()
}

// foldConfig builds one grid point: machine model, faults off or
// injecting at aggressive rates, batching on/off.
func foldConfig(omega, faulty, serial bool) Config {
	b, o := ScaledPair(4096, 8, 0.2)
	cfg := b
	if omega {
		cfg = o
	}
	cfg.SerialAccess = serial
	if faulty {
		cfg.Faults = faults.Config{
			Seed:         7,
			DRAMFlipRate: 0.05,
			DirFlipRate:  0.02,
			NoCDropRate:  0.01,
			SPParityRate: 0.02,
		}
	}
	return cfg
}

// levelProfile is the machine's per-level access counts and summed
// latencies, settled (any open fold window flushed).
type levelProfile struct {
	counts, latencies [2 * memsys.NumLevels]uint64
}

func levelsOf(m *Machine) levelProfile {
	m.flushFold()
	return levelProfile{m.levelCount, m.levelLatency}
}

// runFoldScript executes foldScript on a fresh machine with a metrics
// buffer attached and returns every observable the equivalence check
// compares: final stats, level profile, and the emitted sample stream.
func runFoldScript(cfg Config) (MachineStats, levelProfile, []obs.MetricSample) {
	m := NewMachine(cfg)
	buf := obs.NewBuffer()
	m.AttachSink(buf) // samples-only sink: batching stays enabled
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	wt := m.Alloc("wt", 4096, 8, memsys.KindNGraphData)
	vp := m.Alloc("vp", 4096, 8, memsys.KindVtxProp)
	if m.HasScratchpads() {
		m.ConfigureGraph(
			[]scratchpad.MonitorRegister{m.MonitorFor(vp)}, 4096,
			pisc.StandardMicrocode("add", pisc.OpFPAdd, false, false))
	}
	foldScript(m, el, wt, vp)
	lv := levelsOf(m)
	return m.Stats(), lv, buf.Samples()
}

// TestRunFoldEquivalence sweeps the configuration grid — machine model ×
// fault injection — and requires the batched and serial access paths to
// be indistinguishable in stats, level profile, and metric samples.
// Fault injection at nonzero rates additionally pins the PRNG-stream
// invariant: folding must not consume or skip a single injector draw, or
// seeded fault campaigns would diverge.
func TestRunFoldEquivalence(t *testing.T) {
	for _, omega := range []bool{false, true} {
		for _, faulty := range []bool{false, true} {
			name := fmt.Sprintf("omega=%v/faults=%v", omega, faulty)
			t.Run(name, func(t *testing.T) {
				stB, lvB, smpB := runFoldScript(foldConfig(omega, faulty, false))
				stS, lvS, smpS := runFoldScript(foldConfig(omega, faulty, true))
				if !reflect.DeepEqual(stB, stS) {
					t.Fatalf("stats diverge:\nbatched: %+v\nserial:  %+v", stB, stS)
				}
				if lvB != lvS {
					t.Fatalf("level profile diverges:\nbatched: %v\nserial:  %v", lvB, lvS)
				}
				if !reflect.DeepEqual(smpB, smpS) {
					t.Fatalf("metric samples diverge: batched %d vs serial %d samples",
						len(smpB), len(smpS))
				}
				if faulty && stB.Faults.Total() == 0 {
					t.Fatal("faulty grid point injected no faults; rates too low to exercise the invariant")
				}
			})
		}
	}
}
