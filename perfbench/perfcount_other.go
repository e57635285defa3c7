//go:build !linux

package main

import "errors"

// instrCounter needs Linux perf events; elsewhere the benchmark cannot
// report its instruction metrics and fails.
type instrCounter struct{}

func newInstrCounter() (*instrCounter, error) {
	return nil, errors.New("instruction counter: needs Linux perf events")
}

func (c *instrCounter) refresh() error         { return nil }
func (c *instrCounter) read() (float64, error) { return 0, nil }
func (c *instrCounter) close()                 {}
