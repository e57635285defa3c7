//go:build linux

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// perfEventAttr is the first version (64 bytes) of the kernel's
// struct perf_event_attr.
type perfEventAttr struct {
	typ, size    uint32
	config       uint64
	samplePeriod uint64
	sampleType   uint64
	readFormat   uint64
	flags        uint64
	wakeup       uint32
	bpType       uint32
	config1      uint64
}

const (
	perfTypeHardware    = 0
	perfHWInstructions  = 1
	perfFormatEnabled   = 1 << 0 // PERF_FORMAT_TOTAL_TIME_ENABLED
	perfFormatRunning   = 1 << 1 // PERF_FORMAT_TOTAL_TIME_RUNNING
	perfExcludeKernel   = 1 << 5
	perfExcludeHV       = 1 << 6
	perfFlagFDCloexec   = 1 << 3
	perfReadValueLength = 24 // value, time enabled, time running
)

// instrCounter counts the user-mode instructions that every thread of
// this process retires, with one hardware counter per thread. Unlike
// host time, the count does not grow when other tenants of a shared
// host contend for its caches, memory or cores. A thread started after
// the last refresh is counted from the next refresh on.
type instrCounter struct {
	fds map[int]int // thread id → counter
}

func newInstrCounter() (*instrCounter, error) {
	c := &instrCounter{fds: map[int]int{}}
	if err := c.refresh(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// refresh opens a counter on every thread that has none yet.
func (c *instrCounter) refresh() error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return fmt.Errorf("instruction counter: %w", err)
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if _, ok := c.fds[tid]; ok {
			continue
		}
		attr := perfEventAttr{
			typ: perfTypeHardware, size: uint32(unsafe.Sizeof(perfEventAttr{})),
			config:     perfHWInstructions,
			readFormat: perfFormatEnabled | perfFormatRunning,
			flags:      perfExcludeKernel | perfExcludeHV,
		}
		fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN, uintptr(unsafe.Pointer(&attr)),
			uintptr(tid), ^uintptr(0), ^uintptr(0), perfFlagFDCloexec, 0)
		if errno == syscall.ESRCH {
			continue // the thread exited since the directory was read
		}
		if errno != 0 {
			return fmt.Errorf("instruction counter: perf_event_open: %w (needs a hardware PMU and kernel.perf_event_paranoid <= 2)", errno)
		}
		c.fds[tid] = int(fd)
	}
	return nil
}

// read is the instructions counted so far over all counters. A counter
// that shared the PMU with other events is scaled by the share of time
// it ran.
func (c *instrCounter) read() (float64, error) {
	var total float64
	var buf [perfReadValueLength]byte
	for _, fd := range c.fds {
		n, err := syscall.Read(fd, buf[:])
		if err != nil || n != len(buf) {
			return 0, errors.Join(errors.New("instruction counter: short read"), err)
		}
		value := binary.LittleEndian.Uint64(buf[0:])
		enabled := binary.LittleEndian.Uint64(buf[8:])
		running := binary.LittleEndian.Uint64(buf[16:])
		v := float64(value)
		if running > 0 && running < enabled {
			v *= float64(enabled) / float64(running)
		}
		total += v
	}
	return total, nil
}

func (c *instrCounter) close() {
	for _, fd := range c.fds {
		syscall.Close(fd)
	}
	c.fds = nil
}
