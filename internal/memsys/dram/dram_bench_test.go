package dram

import (
	"testing"

	"omega/internal/memsys"
)

// dramStream issues one line read per call under the default geometry:
// runs of eight consecutive lines (spread over the channels, two per
// open row) at a large odd stride, so channels, banks and rows all
// rotate — close to half the reads hit an open row — with loaded
// channel queues.
type dramStream struct {
	d   *DRAM
	now memsys.Cycles
	k   uint64
}

func newDRAMStream() *dramStream {
	s := &dramStream{d: New(DefaultConfig())}
	for k := 0; k < 4096; k++ { // open rows and load the channel queues
		s.access()
	}
	return s
}

func (s *dramStream) access() memsys.Cycles {
	s.now += 5
	s.k++
	line := ((s.k>>3)*4099 + s.k&7) & (1<<20 - 1) // run s.k>>3, line s.k&7 of it
	return s.d.Access(s.now, memsys.Addr(line*memsys.LineSize))
}

var dramSink memsys.Cycles

// BenchmarkDRAMAccess measures one DRAM line read: address decomposition,
// channel queue delay, and the open-row check and update.
func BenchmarkDRAMAccess(b *testing.B) {
	s := newDRAMStream()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		dramSink += s.access()
	}
}

// TestDRAMAccessZeroAlloc pins Access's allocation contract: a line read
// allocates nothing.
func TestDRAMAccessZeroAlloc(t *testing.T) {
	s := newDRAMStream()
	if allocs := testing.AllocsPerRun(2000, func() { s.access() }); allocs != 0 {
		t.Fatalf("Access allocates %.1f objects/read, want 0", allocs)
	}
}
