package cache

import (
	"testing"
	"testing/quick"

	"omega/internal/memsys"
	"omega/internal/stats"
)

// refCache is an executable specification of the cache: a map-based
// set-associative LRU used to cross-check the real implementation
// access-by-access.
type refCache struct {
	ways    int
	numSets uint64
	sets    map[uint64][]refLine // set -> MRU-ordered lines
}

type refLine struct {
	tag    uint64
	dirty  bool
	pinned bool
}

func newRefCache(sizeBytes, ways int) *refCache {
	return &refCache{
		ways:    ways,
		numSets: uint64(sizeBytes / (memsys.LineSize * ways)),
		sets:    make(map[uint64][]refLine),
	}
}

func (r *refCache) locate(a memsys.Addr) (uint64, uint64) {
	la := uint64(memsys.LineAddr(a)) / memsys.LineSize
	return la % r.numSets, la / r.numSets
}

// access returns hit and updates LRU/dirty like the real cache.
func (r *refCache) access(a memsys.Addr, write bool) bool {
	set, tag := r.locate(a)
	lines := r.sets[set]
	for i, l := range lines {
		if l.tag == tag {
			if write {
				l.dirty = true
			}
			// Move to MRU position.
			lines = append(lines[:i], lines[i+1:]...)
			r.sets[set] = append([]refLine{l}, lines...)
			return true
		}
	}
	return false
}

// invalidate drops the line if present, returning presence and dirtiness.
func (r *refCache) invalidate(a memsys.Addr) (present, dirty bool) {
	set, tag := r.locate(a)
	lines := r.sets[set]
	for i, l := range lines {
		if l.tag == tag {
			r.sets[set] = append(lines[:i], lines[i+1:]...)
			return true, l.dirty
		}
	}
	return false, false
}

// fill installs a line, evicting LRU if needed; returns the victim tag.
func (r *refCache) fill(a memsys.Addr, dirty bool) (victimAddr memsys.Addr, evicted bool) {
	set, tag := r.locate(a)
	lines := r.sets[set]
	for i, l := range lines {
		if l.tag == tag {
			if dirty {
				l.dirty = true
			}
			lines = append(lines[:i], lines[i+1:]...)
			r.sets[set] = append([]refLine{l}, lines...)
			return 0, false
		}
	}
	if len(lines) >= r.ways {
		// Evict LRU (last, skipping pinned).
		vi := -1
		for i := len(lines) - 1; i >= 0; i-- {
			if !lines[i].pinned {
				vi = i
				break
			}
		}
		if vi == -1 {
			return 0, false // fully pinned: reject
		}
		victim := lines[vi]
		victimAddr = memsys.Addr((victim.tag*r.numSets + set) * memsys.LineSize)
		lines = append(lines[:vi], lines[vi+1:]...)
		evicted = true
	}
	r.sets[set] = append([]refLine{{tag: tag, dirty: dirty}}, lines...)
	return victimAddr, evicted
}

// TestCacheMatchesReferenceModel drives random operation traces through
// the real cache and the executable spec and requires identical hit/miss,
// eviction and invalidation behaviour. The trace mixes the plain probe
// with the streaming operations that arm the same-line memo
// (AccessStreamRead, FillStream) and with memo lookups (SameLineReadHit)
// aimed mostly at the last streamed line. The spec has no memo: a memo
// hit must be a read hit there too (and is replayed into its LRU order,
// so later victims keep agreeing), and a refusal must leave no trace in
// the real cache's use clock or read counters.
func TestCacheMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		sizeBytes := 1 << 10
		ways := []int{1, 2, 4}[r.Intn(3)]
		real := New(Config{SizeBytes: sizeBytes, Ways: ways, LatencyCycles: 1, Name: "p"})
		ref := newRefCache(sizeBytes, ways)
		var streamed memsys.Addr // address of the last streaming operation
		var readHits uint64      // read hits the spec has seen
		fail := func(i int, format string, args ...any) bool {
			t.Logf("seed %d step %d: "+format, append([]any{seed, i}, args...)...)
			return false
		}
		fill := func(i int, a memsys.Addr, write, stream bool) bool {
			var gotV EvictedLine
			var gotEv bool
			if stream {
				gotV, gotEv = real.FillStream(a, write)
			} else {
				gotV, gotEv = real.Fill(a, write)
			}
			wantV, wantEv := ref.fill(a, write)
			if gotEv != wantEv {
				return fail(i, "evicted %v, ref %v", gotEv, wantEv)
			}
			if gotEv && gotV.Addr != wantV {
				return fail(i, "victim %#x, ref %#x", gotV.Addr, wantV)
			}
			return true
		}
		for i := 0; i < 3000; i++ {
			a := memsys.Addr(r.Intn(1 << 14))
			switch op := r.Intn(8); {
			case op < 4: // plain probe, fill on miss
				write := r.Intn(3) == 0
				gotHit := real.Access(a, write)
				wantHit := ref.access(a, write)
				if gotHit != wantHit {
					return fail(i, "addr %#x: hit %v, ref %v", a, gotHit, wantHit)
				}
				if gotHit && !write {
					readHits++
				}
				if !gotHit && !fill(i, a, write, false) {
					return false
				}
			case op < 6: // streaming read, streaming fill on miss
				streamed = a
				gotHit := real.AccessStreamRead(a)
				wantHit := ref.access(a, false)
				if gotHit != wantHit {
					return fail(i, "stream addr %#x: hit %v, ref %v", a, gotHit, wantHit)
				}
				if gotHit {
					readHits++
				} else if !fill(i, a, false, true) {
					return false
				}
			case op < 7: // memo lookup, mostly on the last streamed line
				if r.Intn(4) != 0 {
					a = memsys.LineAddr(streamed) + memsys.Addr(r.Intn(memsys.LineSize))
				}
				clock, reads := real.useClock, real.Reads
				if real.SameLineReadHit(a) {
					if !ref.access(a, false) {
						return fail(i, "memo hit on %#x, absent in ref", a)
					}
					readHits++
				} else if real.useClock != clock || real.Reads != reads {
					return fail(i, "memo refusal on %#x left a trace", a)
				}
			default: // invalidation
				gotP, gotD := real.Invalidate(a)
				wantP, wantD := ref.invalidate(a)
				if gotP != wantP || gotD != wantD {
					return fail(i, "invalidate %#x: (%v,%v), ref (%v,%v)", a, gotP, gotD, wantP, wantD)
				}
			}
			if real.Reads.Hits != readHits {
				return fail(i, "read hits %d, ref %d", real.Reads.Hits, readHits)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPinExcludesFromEviction pins random lines, then floods the cache and
// requires every pinned line to still be present.
func TestPinExcludesFromEviction(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRand(seed)
		c := New(Config{SizeBytes: 1 << 10, Ways: 4, LatencyCycles: 1, Name: "p"})
		var pinned []memsys.Addr
		for i := 0; i < 8; i++ {
			a := memsys.Addr(r.Intn(1<<13)) &^ 63
			if c.Pin(a) {
				pinned = append(pinned, a)
			}
		}
		for i := 0; i < 2000; i++ {
			a := memsys.Addr(r.Intn(1 << 15))
			if !c.Access(a, false) {
				c.Fill(a, false)
			}
		}
		for _, a := range pinned {
			if !c.Lookup(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPinRefusesFullSet(t *testing.T) {
	// 2-way cache: second pin into the same set must fail (a set must
	// keep one replaceable way).
	c := New(Config{SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 1, Name: "p"})
	numSets := (1 << 10) / (64 * 2)
	a1 := memsys.Addr(0)
	a2 := memsys.Addr(numSets * 64) // same set, next tag
	if !c.Pin(a1) {
		t.Fatal("first pin should succeed")
	}
	if c.Pin(a2) {
		t.Fatal("pin must keep one replaceable way per set")
	}
	if c.PinnedLines() != 1 {
		t.Fatalf("pinned lines %d", c.PinnedLines())
	}
	// Re-pinning the same line is idempotent.
	if !c.Pin(a1) || c.PinnedLines() != 1 {
		t.Fatal("re-pin should be idempotent")
	}
}
