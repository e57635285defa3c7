package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the simulator's modules as the benchmark reports them, in
// report order. Every CPU profile sample is charged to exactly one.
var layers = []string{
	"graph",
	"experiments",
	"obs",
	"ligra",
	"core.sched",
	"core.access",
	"core.hierarchy",
	"cpu",
	"memsys.cache",
	"memsys.coherence",
	"memsys.queue",
	"memsys.noc",
	"memsys.dram",
	"scratchpad",
	"runtime",
	"unattributed",
}

// chargeCaller marks a package whose CPU belongs to whoever called it:
// small shared helpers that every layer uses.
const chargeCaller = "-"

// packageLayers is the fold table: the layer of each package of the
// module. omega/internal/core is split further by function (coreFuncLayers).
// TestFoldTableCoversEveryPackage keeps it complete.
var packageLayers = map[string]string{
	"omega":                           "experiments",
	"omega/internal/algorithms":       "ligra",
	"omega/internal/analytical":       "experiments",
	"omega/internal/core":             "core.access",
	"omega/internal/cpu":              "cpu",
	"omega/internal/experiments":      "experiments",
	"omega/internal/faults":           chargeCaller,
	"omega/internal/graph":            "graph",
	"omega/internal/graph/datasets":   "graph",
	"omega/internal/graph/gen":        "graph",
	"omega/internal/graph/gio":        "graph",
	"omega/internal/graph/reorder":    "graph",
	"omega/internal/graphmat":         "ligra",
	"omega/internal/ligra":            "ligra",
	"omega/internal/memsys":           "memsys.queue",
	"omega/internal/memsys/cache":     "memsys.cache",
	"omega/internal/memsys/coherence": "memsys.coherence",
	"omega/internal/memsys/dram":      "memsys.dram",
	"omega/internal/memsys/noc":       "memsys.noc",
	"omega/internal/obs":              "obs",
	"omega/internal/pisc":             "scratchpad",
	"omega/internal/power":            "experiments",
	"omega/internal/resilience":       "experiments",
	"omega/internal/scratchpad":       "scratchpad",
	"omega/internal/slicing":          "experiments",
	"omega/internal/stats":            chargeCaller,
	"omega/internal/trace":            "obs",
	"omega/internal/translate":        "ligra",
}

// coreFuncLayers splits omega/internal/core by function-name prefix;
// functions matching none are access dispatch (core.access).
var coreFuncLayers = []struct{ prefix, layer string }{
	{"(*coreHeap).", "core.sched"},
	{"(*Machine).ParallelFor", "core.sched"},
	{"(*Machine).acquireSched", "core.sched"},
	{"(*Machine).releaseSched", "core.sched"},
	{"(*Machine).Sequential", "core.sched"},
	{"(*Machine).Barrier", "core.sched"},
	{"(*Machine).BeginIteration", "core.sched"},
	{"(*cachePath).", "core.hierarchy"},
	{"newCachePath", "core.hierarchy"},
	{"(*omegaHier).", "core.hierarchy"},
	{"(*baselineHier).", "core.hierarchy"},
	{"newOmegaHier", "core.hierarchy"},
	{"buildRegistry", "obs"},
}

// splitFunc splits a profile function name such as
// "omega/internal/memsys/cache.(*Cache).install" into its package path
// and the function within it.
func splitFunc(name string) (pkg, fn string) {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name, ""
	}
	return name[:slash+1+dot], name[slash+2+dot:]
}

// funcLayer returns the layer of one function: a layer name,
// chargeCaller, or "" for code outside the module (the standard library
// and the benchmark itself), which also defers to its caller.
func funcLayer(name string) string {
	pkg, fn := splitFunc(name)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	layer, ok := packageLayers[pkg]
	if !ok {
		return ""
	}
	if pkg == "omega/internal/core" {
		for _, r := range coreFuncLayers {
			if strings.HasPrefix(fn, r.prefix) {
				return r.layer
			}
		}
	}
	return layer
}

// sampleLayer charges one sample, given its stack leaf first: a leaf in
// the Go runtime is "runtime"; otherwise the first frame that belongs to
// a layer names it, and a stack with no such frame is "unattributed".
func sampleLayer(stack []string) string {
	if len(stack) > 0 && funcLayer(stack[0]) == "runtime" {
		return "runtime"
	}
	for _, f := range stack {
		if l := funcLayer(f); l != "" && l != chargeCaller && l != "runtime" {
			return l
		}
	}
	return "unattributed"
}

// foldProfile decodes a gzipped pprof CPU profile and returns CPU
// seconds per layer together with the profile's total.
func foldProfile(gz []byte) (map[string]float64, float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	byLayer := make(map[string]float64, len(layers))
	var total float64
	for _, s := range p.samples {
		stack := make([]string, 0, len(s.locs))
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs[id]...)
		}
		sec := float64(s.cpuNanos) / 1e9
		byLayer[sampleLayer(stack)] += sec
		total += sec
	}
	return byLayer, total, nil
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	samples []profSample
	// locFuncs lists each location's function names, innermost
	// (inlined callee) first.
	locFuncs map[uint64][]string
}

type profSample struct {
	locs     []uint64
	cpuNanos int64
}

// parseProfile reads the gzipped protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto) with a minimal wire
// decoder, so the benchmark needs nothing outside the standard library.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		sampleType [][2]int64 // (type, unit) string indices
		samples    []rawSample
		locLines   = map[uint64][]uint64{}
		funcNames  = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, vt := range sampleType {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &profile{locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locFuncs[id] = names
	}
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		p.samples = append(p.samples, profSample{locs: s.locs, cpuNanos: s.values[cpu]})
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, which the encoder may
// write either packed (wire type 2) or one varint at a time.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
