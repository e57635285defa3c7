package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// rssSampler polls the process's resident set so that each repetition
// gets its own peak. The process-wide peak (getrusage's ru_maxrss) is a
// single extreme value that depends on when the garbage collector ran;
// the median of per-repetition peaks is steadier.
type rssSampler struct {
	mu   sync.Mutex
	peak uint64 // bytes since the last take
	stop chan struct{}
	done chan struct{}
}

// startRSS starts polling every interval; it returns nil where the
// resident set cannot be read (no /proc/self/statm).
func startRSS(interval time.Duration) *rssSampler {
	if _, ok := residentBytes(); !ok {
		return nil
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if v, ok := residentBytes(); ok {
		s.mu.Lock()
		s.peak = max(s.peak, v)
		s.mu.Unlock()
	}
}

// take returns the peak in MiB since the previous take and starts a new
// interval at the current resident set.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak, _ = residentBytes()
	return float64(p) / (1 << 20)
}

// close stops the poller and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// residentBytes reads the resident set from /proc/self/statm (its second
// field, in pages).
func residentBytes() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * uint64(os.Getpagesize()), true
}

// maxRSSMB is the process-wide peak resident set in MiB (Linux reports
// ru_maxrss in KiB), the fallback where polling is unavailable.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
