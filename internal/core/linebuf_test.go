package core

import (
	"testing"

	"omega/internal/faults"
	"omega/internal/memsys"
	"omega/internal/pisc"
	"omega/internal/scratchpad"
)

// These tests pin the machine-level edges of the streaming-read fast path
// (Machine.fastRead), which the linebuf/hits and linebuf/stores registry
// counters measure and the L1's same-line memo serves. The memo's
// equivalence with a full probe is proven where the memo lives, by
// TestCacheMatchesReferenceModel in internal/memsys/cache; here each
// machine event that must (or must not) drop the memo is checked by its
// observable effect: whether the next streaming read is a memo hit or a
// full probe.

// armed reads r[i] (a streaming region) on core and reports whether the
// read was served by the L1's same-line memo (linebuf/hits advanced) or
// took a full probe (linebuf/stores advanced). The read itself re-arms the
// memo, so each call observes the state the preceding event left.
func armed(t *testing.T, m *Machine, core int, r *Region, i int) bool {
	t.Helper()
	hits, stores := m.lbHits.Value(), m.lbStores.Value()
	(&Ctx{m: m, core: core}).Read(r, i)
	dh, ds := m.lbHits.Value()-hits, m.lbStores.Value()-stores
	if dh+ds != 1 {
		t.Fatalf("read of %s[%d] on core %d: %d memo hits, %d full probes; want exactly one",
			r.Name, i, core, dh, ds)
	}
	return dh == 1
}

// TestLineBufferCoherenceWrite pins the cross-core write edge against
// the MESI-lite model. The directory counts an invalidation message and
// truncates the sharer list, but it does not physically remove the
// other core's L1 copy — a full probe after the write still hits the
// stale-but-present line (that is why the residency superset mask
// exists). The memo must therefore stay armed: replaying it is exactly
// what the full probe would do. Physical L1 invalidation only happens on
// L2 back-invalidation, covered at the cache level by
// TestInvalidateDropsMemo.
func TestLineBufferCoherenceWrite(t *testing.T) {
	m := NewMachine(testBaseline())
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	c0 := &Ctx{m: m, core: 0}
	c1 := &Ctx{m: m, core: 1}
	c0.Read(el, 0)
	if !armed(t, m, 0, el, 0) {
		t.Fatal("read did not arm the same-line memo")
	}
	c1.Write(el, 0)
	if m.Stats().Invalidations == 0 {
		t.Fatal("cross-core write did not raise a directory invalidation")
	}
	// The stale copy is still present in core 0's L1, so the memo must
	// still be armed — dropping it here would desynchronize the fast
	// path from the full probe's hit/miss outcome.
	hitsBefore := m.path.l1[0].Reads.Hits
	if !armed(t, m, 0, el, 0) {
		t.Fatal("memo died on a cross-core write; the full probe would still hit the stale L1 copy")
	}
	if m.path.l1[0].Reads.Hits != hitsBefore+1 {
		t.Fatal("full-probe semantics changed: post-write read on the stale copy should hit L1")
	}
}

// TestLineBufferIterationAndConfigEpochs checks the machine-level
// conservative drops: BeginIteration and ConfigureGraph each drop every
// core's memo.
func TestLineBufferIterationAndConfigEpochs(t *testing.T) {
	m := NewMachine(testOMEGA())
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	vp := m.Alloc("vp", 4096, 8, memsys.KindVtxProp)
	c0 := &Ctx{m: m, core: 0}
	c1 := &Ctx{m: m, core: 1}

	c0.Read(el, 0)
	c1.Read(el, 512)
	if !armed(t, m, 0, el, 0) || !armed(t, m, 1, el, 512) {
		t.Fatal("reads did not arm the same-line memos")
	}
	m.BeginIteration() // scratchpad InvalidateSrcBufs + memo drop
	if armed(t, m, 0, el, 0) || armed(t, m, 1, el, 512) {
		t.Fatal("memo survived BeginIteration: the next read was not a full probe")
	}

	// The full probes above re-armed both memos.
	if !armed(t, m, 0, el, 0) || !armed(t, m, 1, el, 512) {
		t.Fatal("re-probe did not re-arm the same-line memos")
	}
	m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(vp)}, 4096,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	if armed(t, m, 0, el, 0) || armed(t, m, 1, el, 512) {
		t.Fatal("memo survived ConfigureGraph: the next read was not a full probe")
	}
}

// TestLineBufferFaultDegrade checks the resilience edge: a scratchpad
// parity trip degrades the vertex to the cache path and must
// conservatively drop the memo (via Cache.DropHot).
func TestLineBufferFaultDegrade(t *testing.T) {
	cfg := testOMEGA()
	cfg.Faults = faults.Config{Seed: 1, SPParityRate: 1} // every SP access trips
	m := NewMachine(cfg)
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	vp := m.Alloc("vp", 4096, 8, memsys.KindVtxProp)
	resident := m.ConfigureGraph([]scratchpad.MonitorRegister{m.MonitorFor(vp)}, 4096,
		pisc.StandardMicrocode("t", pisc.OpFPAdd, false, false))
	if resident < 1 {
		t.Fatal("no scratchpad-resident vertices")
	}
	c0 := &Ctx{m: m, core: 0}
	c0.Read(el, 0)
	if !armed(t, m, 0, el, 0) {
		t.Fatal("read did not arm the same-line memo")
	}
	c0.Read(vp, 0) // resident vertex, parity trips, degrade path runs
	if m.Stats().SPDegraded == 0 {
		t.Fatal("parity trip did not degrade the vertex")
	}
	if armed(t, m, 0, el, 0) {
		t.Fatal("memo survived a fault degrade on the same core: the next read was not a full probe")
	}
}

// TestLineBufferMachineReset checks that Reset drops the memo, so the
// first read after it takes the full probe rather than the fast path.
func TestLineBufferMachineReset(t *testing.T) {
	m := NewMachine(testBaseline())
	el := m.Alloc("el", 4096, 8, memsys.KindEdgeList)
	c0 := &Ctx{m: m, core: 0}
	c0.Read(el, 0)
	if !armed(t, m, 0, el, 0) {
		t.Fatal("read did not arm the same-line memo")
	}
	m.Reset()
	if armed(t, m, 0, el, 1) {
		t.Fatal("memo survived Machine.Reset: the next read was not a full probe")
	}
	if m.lbHits.Value() != 0 || m.lbStores.Value() != 1 {
		t.Fatalf("first read after Reset: %d memo hits, %d full probes; want 0, 1",
			m.lbHits.Value(), m.lbStores.Value())
	}
}
