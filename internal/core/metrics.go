package core

import (
	"omega/internal/memsys"
	"omega/internal/memsys/cache"
	"omega/internal/memsys/noc"
	"omega/internal/obs"
)

// buildRegistry wires the machine's metric registry: one descriptor per
// counter the simulator maintains, each reading the live component state
// through a closure. Registration happens once at construction and the
// order is fixed by this function, so the emitted sample stream is
// deterministic for a deterministically built machine. MachineStats is
// derived through the same registry (see Stats), so the snapshot and the
// sample stream can never disagree.
func buildRegistry(m *Machine) *obs.Registry {
	r := obs.NewRegistry()

	// cpu: clocks, retired instructions, TMAM breakdown, stall attribution
	// — summed across cores.
	r.RegisterGauge("cpu", "cycles", "", func() uint64 { return uint64(m.ElapsedCycles()) })
	r.RegisterCounter("cpu", "instructions", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += c.Instructions()
		}
		return t
	})
	r.RegisterCounter("cpu", "retiring", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.Breakdown().Retiring)
		}
		return t
	})
	r.RegisterCounter("cpu", "frontend", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.Breakdown().Frontend)
		}
		return t
	})
	r.RegisterCounter("cpu", "memory_bound", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.Breakdown().MemoryBound)
		}
		return t
	})
	r.RegisterCounter("cpu", "core_bound", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.Breakdown().CoreBound)
		}
		return t
	})
	r.RegisterCounter("cpu", "blocking_stall", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.BlockingStall)
		}
		return t
	})
	r.RegisterCounter("cpu", "window_stall", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.WindowStall)
		}
		return t
	})
	r.RegisterCounter("cpu", "drain_stall", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.DrainStall)
		}
		return t
	})
	r.RegisterCounter("cpu", "offload_stall", "", func() uint64 {
		var t uint64
		for _, c := range m.cores {
			t += uint64(c.OffloadStall)
		}
		return t
	})

	// cache: hit/total read/write breakdowns plus eviction activity, keyed
	// by hierarchy level ("L1", "L2+"), summed across private caches/banks.
	registerCacheTier := func(level string, caches func() []*cache.Cache) {
		r.RegisterCounter("cache", "read_hits", level, func() uint64 {
			var t uint64
			for _, c := range caches() {
				t += c.Reads.Hits
			}
			return t
		})
		r.RegisterCounter("cache", "read_total", level, func() uint64 {
			var t uint64
			for _, c := range caches() {
				t += c.Reads.Total
			}
			return t
		})
		r.RegisterCounter("cache", "write_hits", level, func() uint64 {
			var t uint64
			for _, c := range caches() {
				t += c.Writes.Hits
			}
			return t
		})
		r.RegisterCounter("cache", "write_total", level, func() uint64 {
			var t uint64
			for _, c := range caches() {
				t += c.Writes.Total
			}
			return t
		})
		r.RegisterCounter("cache", "evictions", level, func() uint64 {
			var t uint64
			for _, c := range caches() {
				t += c.Evictions.Value()
			}
			return t
		})
		r.RegisterCounter("cache", "writebacks", level, func() uint64 {
			var t uint64
			for _, c := range caches() {
				t += c.Writebacks.Value()
			}
			return t
		})
	}
	registerCacheTier(memsys.LevelL1.String(), func() []*cache.Cache { return m.path.l1 })
	registerCacheTier(memsys.LevelL2Plus.String(), func() []*cache.Cache { return m.path.l2 })

	// coherence: directory traffic and occupancy.
	r.RegisterCounter("coherence", "invalidations", "", m.path.dir.Invalidations.Value)
	r.RegisterCounter("coherence", "c2c_transfers", "", m.path.dir.C2CTransfers.Value)
	r.RegisterGauge("coherence", "lines", "", func() uint64 { return uint64(m.path.dir.Lines()) })

	// dram.
	r.RegisterCounter("dram", "accesses", "", m.mem.Accesses.Value)
	r.RegisterCounter("dram", "bytes", "", m.mem.BytesMoved.Value)
	r.RegisterCounter("dram", "row_hits", "", func() uint64 { return m.mem.RowHits.Hits })
	r.RegisterCounter("dram", "row_total", "", func() uint64 { return m.mem.RowHits.Total })
	r.RegisterCounter("dram", "queue_wait", "", m.mem.QueueDelay.Value)
	r.RegisterCounter("dram", "ecc_penalty", "", m.mem.ECCPenalty.Value)

	// noc: per-class traffic plus queueing.
	for _, cl := range [...]noc.MsgClass{noc.ClassLine, noc.ClassWord, noc.ClassCtrl} {
		cl := cl
		r.RegisterCounter("noc", "bytes", cl.String(), func() uint64 { return m.xbar.BytesByClass(cl) })
		r.RegisterCounter("noc", "messages", cl.String(), func() uint64 { return m.xbar.MessagesByClass(cl) })
	}
	r.RegisterCounter("noc", "queue_wait", "", m.xbar.QueueWait.Value)
	r.RegisterCounter("noc", "retry_wait", "", m.xbar.RetryWait.Value)

	// scratchpad + pisc (OMEGA machines only — on the baseline the probes
	// are simply absent and the corresponding stats read as zero).
	if m.omega != nil {
		ctrl := m.omega.ctrl
		r.RegisterCounter("scratchpad", "local", "", ctrl.LocalAccesses.Value)
		r.RegisterCounter("scratchpad", "remote", "", ctrl.RemoteAccesses.Value)
		r.RegisterCounter("scratchpad", "srcbuf_hits", "", func() uint64 { return ctrl.SrcBufHits.Hits })
		r.RegisterCounter("scratchpad", "srcbuf_total", "", func() uint64 { return ctrl.SrcBufHits.Total })
		r.RegisterCounter("scratchpad", "active_bit_sets", "", ctrl.ActiveBitSets.Value)
		r.RegisterGauge("scratchpad", "resident", "", func() uint64 { return uint64(ctrl.ResidentCount()) })
		r.RegisterGauge("scratchpad", "degraded", "", func() uint64 { return uint64(ctrl.DegradedCount()) })
		r.RegisterCounter("pisc", "executed", "", func() uint64 {
			var t uint64
			for _, e := range m.omega.engines {
				t += e.Executed.Value()
			}
			return t
		})
		r.RegisterCounter("pisc", "busy", "", func() uint64 {
			var t uint64
			for _, e := range m.omega.engines {
				t += e.BusyTime.Value()
			}
			return t
		})
		r.RegisterCounter("pisc", "backpress", "", func() uint64 {
			var t uint64
			for _, e := range m.omega.engines {
				t += e.Backpress.Value()
			}
			return t
		})
		r.RegisterCounter("machine", "offloads", "", m.omega.offloads.Value)
		r.RegisterCounter("machine", "sp_atomics", "", m.omega.spAtomics.Value)
		r.RegisterCounter("machine", "remote_reads", "", m.omega.remoteReads.Value)
	}

	// machine: issue-side access mix and the per-level service breakdown.
	for k := memsys.Kind(0); k < memsys.NumKinds; k++ {
		k := k
		r.RegisterCounter("machine", "accesses", k.String(), m.accessesByKind[k].Value)
	}
	r.RegisterCounter("machine", "atomics", "", m.atomicsIssued.Value)
	r.RegisterCounter("machine", "src_reads", "", m.srcReads.Value)
	r.RegisterCounter("machine", "iterations", "", m.iterations.Value)
	for l := memsys.Level(0); l < memsys.NumLevels; l++ {
		for _, atomic := range [2]bool{false, true} {
			i := levelIndex(l, atomic)
			name := l.String()
			if atomic {
				name = "atomic:" + name
			}
			r.RegisterCounter("machine", "level_count", name, func() uint64 { return m.levelCount[i] })
			r.RegisterCounter("machine", "level_latency", name, func() uint64 { return m.levelLatency[i] })
		}
	}

	// sched / linebuf / alloc: the execution-driver side. linebuf counts
	// the streaming-read fast path: L1 same-line memo hits, and the full
	// probes that (re-)arm the memo.
	r.RegisterCounter("sched", "parallel_regions", "", m.parRegions.Value)
	r.RegisterCounter("sched", "sequential_regions", "", m.seqRegions.Value)
	r.RegisterCounter("sched", "items", "", m.schedItems.Value)
	r.RegisterCounter("linebuf", "hits", "", m.lbHits.Value)
	r.RegisterCounter("linebuf", "stores", "", m.lbStores.Value)
	r.RegisterGauge("alloc", "regions", "", func() uint64 { return uint64(len(m.regions)) })
	r.RegisterGauge("alloc", "bytes", "", func() uint64 {
		var t uint64
		for _, reg := range m.regions {
			t += uint64(reg.Bytes())
		}
		return t
	})
	return r
}
