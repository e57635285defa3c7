package core

import (
	"fmt"
	"math/rand"
	"testing"

	"omega/internal/memsys"
)

// schedStep is one scheduled work item: the core that ran it and its index.
type schedStep struct{ core, item int }

// referenceSchedule re-implements the original O(p) per-item scan: every
// step runs one item on the core with work whose clock is lowest, strict
// less-than with the first-seen (lowest) ID winning ties. A core that
// finishes a chunk claims its next one at once: chunk k+p under static
// scheduling, the shared counter's next chunk under dynamic scheduling.
// Item i advances its core's clock by adv[i].
func referenceSchedule(clocks []memsys.Cycles, n, chunk int, dynamic bool, adv []memsys.Cycles) []schedStep {
	p := len(clocks)
	numChunks := (n + chunk - 1) / chunk
	cur := make([]int, p) // current chunk per core, -1 when idle
	off := make([]int, p) // next item within the chunk
	for c := range cur {
		cur[c] = -1
		if c < numChunks {
			cur[c] = c
		}
	}
	dynNext := min(p, numChunks)
	var steps []schedStep
	for {
		sel := -1
		for c := 0; c < p; c++ {
			if cur[c] >= 0 && (sel < 0 || clocks[c] < clocks[sel]) {
				sel = c
			}
		}
		if sel < 0 {
			return steps
		}
		i := cur[sel]*chunk + off[sel]
		steps = append(steps, schedStep{sel, i})
		clocks[sel] += adv[i]
		if off[sel]++; off[sel] == chunk || i+1 == n {
			off[sel] = 0
			next := cur[sel] + p
			if dynamic {
				next = dynNext
				dynNext++
			}
			if next >= numChunks {
				next = -1
			}
			cur[sel] = next
		}
	}
}

// TestSchedulerMatchesReferenceScan checks that ParallelForGrain runs
// exactly the (core, item) sequence of the reference scan, across core
// counts that do and do not fill the selection tree, chunk sizes, item
// counts around p, and both schedules. Clock advances of 0-3 cycles and
// start offsets of 0-3 make ties frequent. The saturated runs pin every
// clock at the top of the range, where live cores tie with finished ones.
func TestSchedulerMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, p := range []int{1, 2, 3, 5, 16, 17, 63, 64} {
		for _, dynamic := range []bool{false, true} {
			for _, saturated := range []bool{false, true} {
				cfg := testBaseline()
				cfg.NumCores = p
				cfg.DynamicSchedule = dynamic
				m := NewMachine(cfg)
				for _, chunk := range []int{1, 2, 7, 64} {
					for _, n := range []int{0, 1, p - 1, p, p + 1, 1000} {
						name := fmt.Sprintf("p=%d/dynamic=%v/saturated=%v/chunk=%d/n=%d",
							p, dynamic, saturated, chunk, n)
						adv := make([]memsys.Cycles, n)
						clocks := make([]memsys.Cycles, p)
						for c, core := range m.cores {
							if saturated {
								core.SetClock(^memsys.Cycles(0))
							} else {
								core.SetClock(core.Clock() + memsys.Cycles(rng.Intn(4)))
							}
							clocks[c] = core.Clock()
						}
						if !saturated {
							for i := range adv {
								adv[i] = memsys.Cycles(rng.Intn(4))
							}
						}
						want := referenceSchedule(clocks, n, chunk, dynamic, adv)
						var got []schedStep
						m.ParallelForGrain(n, chunk, func(ctx *Ctx, i int) {
							got = append(got, schedStep{ctx.Core(), i})
							core := m.cores[ctx.Core()]
							core.SetClock(core.Clock() + adv[i])
						})
						if len(got) != len(want) {
							t.Fatalf("%s: ran %d items, reference %d", name, len(got), len(want))
						}
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("%s: step %d ran %+v, reference %+v", name, k, got[k], want[k])
							}
						}
					}
				}
			}
		}
	}
}

// TestNestedParallelFor opens a parallel region inside a parallel
// region's body. The inner region cannot reuse the machine's scheduler
// scratch (the outer one holds it) and falls back to fresh state; every
// outer and inner item must still run exactly once, and every outer item
// on the core static chunking assigns it, so the outer cursors survive.
func TestNestedParallelFor(t *testing.T) {
	const outerN, innerN, chunk = 40, 13, 3
	m := NewMachine(testBaseline())
	p := m.NumCores()
	outer := make([]int, outerN)
	inner := make([]int, outerN*innerN)
	m.ParallelForGrain(outerN, chunk, func(ctx *Ctx, i int) {
		outer[i]++
		if want := i / chunk % p; ctx.Core() != want {
			t.Errorf("outer item %d ran on core %d, static chunking assigns core %d", i, ctx.Core(), want)
		}
		ctx.Exec(1 + i%5)
		m.ParallelForGrain(innerN, 1, func(ctx *Ctx, j int) {
			inner[i*innerN+j]++
			ctx.Exec(1 + j%3)
		})
	})
	for i, c := range outer {
		if c != 1 {
			t.Fatalf("outer item %d ran %d times, want 1", i, c)
		}
	}
	for k, c := range inner {
		if c != 1 {
			t.Fatalf("inner item %d of outer item %d ran %d times, want 1", k%innerN, k/innerN, c)
		}
	}
}
