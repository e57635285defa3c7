package noc

import (
	"testing"

	"omega/internal/memsys"
)

// nocTraffic drives one message per call through a 16-port crossbar: a
// line response from a rotating L2 bank to a rotating core, the dominant
// message on the miss path, with arrivals spaced so the destination port
// queues stay loaded but stable.
type nocTraffic struct {
	x   *Crossbar
	now memsys.Cycles
	i   int
}

func newNoCTraffic() *nocTraffic {
	t := &nocTraffic{x: xbar()}
	for k := 0; k < 4096; k++ { // drive port utilization to a steady estimate
		t.send()
	}
	return t
}

func (t *nocTraffic) send() memsys.Cycles {
	t.now += 3
	t.i++
	return t.x.Send(t.now, t.i&15, (t.i*7+3)&15, memsys.LineSize, ClassLine)
}

var nocSink memsys.Cycles

// BenchmarkNoCSend measures one crossbar message: range check, traffic
// accounting, flit serialization and the destination port's queue delay.
func BenchmarkNoCSend(b *testing.B) {
	t := newNoCTraffic()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		nocSink += t.send()
	}
}

// TestNoCSendZeroAlloc pins Send's allocation contract: a message
// allocates nothing.
func TestNoCSendZeroAlloc(t *testing.T) {
	tr := newNoCTraffic()
	if allocs := testing.AllocsPerRun(2000, func() { tr.send() }); allocs != 0 {
		t.Fatalf("Send allocates %.1f objects/message, want 0", allocs)
	}
}
