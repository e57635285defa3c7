package core

import (
	"math/bits"

	"omega/internal/cpu"
	"omega/internal/memsys"
)

// coreHeap is a loser (tournament) tree over core IDs ordered by
// (local clock, core ID). ParallelForGrain uses it to pick the next core
// to run with log2 P compares per item, where P is the leaf count: the
// next power of two ≥ the core count. (The name predates the tree;
// perfbench's profile split attributes the core.sched layer by it.)
//
// Layout: leaf i (core i) sits at virtual node P+i; internal node n has
// children 2n and 2n+1; tree[n] for n in [1, P) holds the loser of the
// match played at n, and tree[0] holds the overall winner. Clocks are
// cached in one flat array indexed by core ID, so a compare reads two
// slots of that array instead of chasing cores[id] pointers.
//
// Exactness: the compare is (clock, id) with a strict less-than. IDs are
// unique, so this is a total order and the winner is the unique minimum —
// exactly the core the original per-item scan selects (lowest clock,
// first-seen, i.e. lowest, ID on ties). Leaves marked out (padding
// leaves beyond the core count and cores with no work left) order after
// every live core whatever their cached clock, so the winner is live
// whenever any core is.
//
// Replay is valid only from the current winner's leaf: at each node on
// that path the winner beat the sibling subtree's winner, which is
// therefore the stored loser, so replaying those matches recomputes every
// subtree winner the winner's key can affect. Between picks only the
// selected core's clock changes (the body advances no other core), so
// one replay from the winner's leaf to the root restores the tree, and
// the cached clocks of all other leaves stay exact.
//
// Config.Validate caps the core count at maxCores, so the leaves fit
// fixed arrays and the out set one word; indices are masked with
// maxCores-1, which lets the compiler drop their per-item bounds checks.
type coreHeap struct {
	cores  []*cpu.Core
	p      int                     // leaf count: a power of two ≥ len(cores)
	clocks [maxCores]memsys.Cycles // cached Clock() per leaf (core ID)
	out    uint64                  // bit i set: leaf i is padding or has no work
	tree   [maxCores]int32         // tree[0] winner, tree[1:p] match losers
}

// outClock is the cached clock of an out leaf (see tieLess).
const outClock = ^memsys.Cycles(0)

// seed fills the tree with cores [0, live) of cores, every other leaf
// marked out, in one O(P) bottom-up build.
func (t *coreHeap) seed(cores []*cpu.Core, live int) {
	t.cores = cores
	t.p = 1 << bits.Len(uint(len(cores)-1))
	t.out = 0
	for i := 0; i < t.p; i++ {
		if i < live {
			t.clocks[i] = cores[i].Clock()
		} else {
			t.clocks[i] = outClock
			t.out |= 1 << uint(i)
		}
	}
	// Pass 1, leaves up: tree[n] = winner of the subtree rooted at n.
	for n := t.p - 1; n > 0; n-- {
		a, b := t.winnerOf(2*n), t.winnerOf(2*n+1)
		if t.less(b, a) {
			a = b
		}
		t.tree[n] = a
	}
	// Pass 2, root down: replace each subtree winner by the match loser.
	// Children sit at higher indices, so their winners are still intact.
	t.tree[0] = t.winnerOf(1)
	for n := 1; n < t.p; n++ {
		a, b := t.winnerOf(2*n), t.winnerOf(2*n+1)
		if t.tree[n] == a {
			t.tree[n] = b
		} else {
			t.tree[n] = a
		}
	}
}

// winnerOf returns the winner of virtual node n during seed: the leaf's
// core for n ≥ P, the subtree winner stored in tree[n] otherwise.
func (t *coreHeap) winnerOf(n int) int32 {
	if n >= t.p {
		return int32(n - t.p)
	}
	return t.tree[n&(maxCores-1)]
}

// less orders leaves by (clock, id), out leaves after live ones.
func (t *coreHeap) less(a, b int32) bool {
	ca, cb := t.clocks[a&(maxCores-1)], t.clocks[b&(maxCores-1)]
	return ca < cb || ca == cb && t.tieLess(a, b)
}

// tieLess orders two leaves with equal cached clocks: live before out,
// then by ID. Out leaves carry the maximum clock, so only a live core at
// that clock can tie with one.
func (t *coreHeap) tieLess(a, b int32) bool {
	if oa, ob := t.out>>uint(a&(maxCores-1))&1, t.out>>uint(b&(maxCores-1))&1; oa != ob {
		return oa < ob
	}
	return a < b
}

// empty reports whether every leaf is out.
func (t *coreHeap) empty() bool { return t.out>>uint(t.tree[0]&(maxCores-1))&1 != 0 }

// min returns the live core with the lowest (clock, id) key.
func (t *coreHeap) min() int { return int(t.tree[0]) }

// fixMin re-reads the winner's clock after its core ran and replays.
func (t *coreHeap) fixMin() {
	w := t.tree[0] & (maxCores - 1)
	c := t.cores[w].Clock()
	t.clocks[w] = c
	t.replay(w, c)
}

// pop marks the winner out and replays.
func (t *coreHeap) pop() {
	w := t.tree[0] & (maxCores - 1)
	t.clocks[w] = outClock
	t.out |= 1 << uint(w)
	t.replay(w, outClock)
}

// replay re-plays the matches on winner leaf w's path to the root. The
// climbing winner's clock cw stays in a register, so each level loads
// only the stored loser's.
func (t *coreHeap) replay(w int32, cw memsys.Cycles) {
	for n := (int(w) + t.p) >> 1; n > 0; n >>= 1 {
		l := t.tree[n&(maxCores-1)]
		if cl := t.clocks[l&(maxCores-1)]; cl < cw || cl == cw && t.tieLess(l, w) {
			t.tree[n&(maxCores-1)], w, cw = w, l, cl
		}
	}
	t.tree[0] = w
}
