package core

import (
	"omega/internal/cpu"
	"omega/internal/memsys"
)

// coreHeap is a binary min-heap of core IDs ordered by
// (local clock, core ID). ParallelForGrain uses it to pick the next core
// to run in O(log p) instead of scanning all cores per work item.
//
// The (clock, id) key is a total order (IDs are unique), so the heap
// minimum is exactly the core a full scan with a strict less-than and
// first-seen tiebreak would select — the item interleaving, and therefore
// every simulated arrival order, is bit-identical to the scan.
//
// Only the just-run core's clock ever changes between selections (the body
// advances no other core), so one sift-down of the root per item restores
// the invariant.
//
// Clocks are cached per heap slot: sift compares index two flat arrays
// instead of chasing h.cores[id] pointers (a host-cache miss per compare
// in the per-item hot loop). The cache is exact — fixMin re-reads the one
// clock that may have moved, and no other slot's clock changes while its
// core is queued.
type coreHeap struct {
	cores  []*cpu.Core
	ids    []int32         // heap slots holding core IDs
	clocks []memsys.Cycles // cached Clock() of the core in each slot
}

// reset prepares the heap for a machine's cores, reusing prior storage.
func (h *coreHeap) reset(cores []*cpu.Core) {
	h.cores = cores
	h.ids = h.ids[:0]
	h.clocks = h.clocks[:0]
}

func (h *coreHeap) empty() bool { return len(h.ids) == 0 }

// min returns the queued core with the lowest (clock, id) key.
func (h *coreHeap) min() int { return int(h.ids[0]) }

func (h *coreHeap) less(a, b int) bool {
	if h.clocks[a] != h.clocks[b] {
		return h.clocks[a] < h.clocks[b]
	}
	return h.ids[a] < h.ids[b]
}

// push queues a core.
func (h *coreHeap) push(id int) {
	h.ids = append(h.ids, int32(id))
	h.clocks = append(h.clocks, h.cores[id].Clock())
	h.up(len(h.ids) - 1)
}

// pop removes the minimum core.
func (h *coreHeap) pop() {
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.clocks = h.clocks[:last]
	if last > 0 {
		h.down(0)
	}
}

// fixMin restores the invariant after the root core's clock advanced.
func (h *coreHeap) fixMin() {
	h.clocks[0] = h.cores[h.ids[0]].Clock()
	h.down(0)
}

func (h *coreHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.clocks[i], h.clocks[j] = h.clocks[j], h.clocks[i]
}

func (h *coreHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *coreHeap) down(i int) {
	n := len(h.ids)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		child := l
		if r := l + 1; r < n && h.less(r, l) {
			child = r
		}
		if !h.less(child, i) {
			return
		}
		h.swap(i, child)
		i = child
	}
}
