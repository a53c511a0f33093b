package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzip-compressed profile.proto that
// runtime/pprof writes: just enough to walk each sample's stack by function
// name. The standard library has no decoder for it and the module has no
// dependencies.

// profSample is one stack sample: function names innermost first (inlined
// frames included) and its weight.
type profSample struct {
	funcs  []string
	weight int64
}

// Profile.proto field numbers used here.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

// parseProfile decodes a gzip-compressed pprof profile into stack samples.
// Each sample's weight is its last value (CPU nanoseconds for a CPU
// profile).
func parseProfile(gz []byte) ([]profSample, error) {
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
		weight int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fieldProfileSample:
			var s rawSample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldSampleLocation:
					s.locs = appendPacked(s.locs, wire, v, b)
				case fieldSampleValue:
					vals = appendPacked(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case fieldProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{weight: s.weight}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.funcs = append(ps.funcs, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls f for every field of one protobuf message: v holds
// varint and fixed-width values, b the payload of length-delimited ones.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case wire64:
			if len(msg) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[8:]
		case wire32:
			if len(msg) < 4 {
				return errTruncated
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[4:]
		case wireBytes:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (a length-delimited run of varints).
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != wireBytes {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Module attribution.

const internalPrefix = "tango/internal/"

// runtimeModule collects samples with no frame in the repository's
// packages: the Go runtime, the standard library, and this benchmark.
const runtimeModule = "runtime"

// moduleOf maps a function name to its module under tango/internal, or ""
// for functions outside it. The stripe scheduler (pan/stripe) is its own
// module; every other nested package counts toward its top directory.
func moduleOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "pan/stripe" {
		return "stripe"
	}
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i]
	}
	return pkg
}

// Frames that identify the virtual clock's auto-advancer goroutine and the
// timer-firing work it does on behalf of the rest of the stack.
const (
	advancerFrame  = "tango/internal/netsim.(*SimClock).AutoAdvance.func1"
	advanceToFrame = "tango/internal/netsim.(*SimClock).advanceTo"
)

// cpuAttribution is a CPU profile folded by module.
type cpuAttribution struct {
	// shares maps each module to its share of all sample weight; the
	// shares sum to 1.
	shares map[string]float64
	// advancer is the share spent in the auto-advancer goroutine outside
	// the timers it fires: the quiescence-detection spin.
	advancer float64
	// samples is the number of stack samples.
	samples int
}

// attribute assigns each sample to the innermost frame's module under
// tango/internal, or to runtime when no frame is.
func attribute(samples []profSample) cpuAttribution {
	a := cpuAttribution{shares: map[string]float64{}, samples: len(samples)}
	var total, spin int64
	weights := map[string]int64{}
	for _, s := range samples {
		total += s.weight
		mod := runtimeModule
		inAdvancer, inAdvanceTo := false, false
		for _, fn := range s.funcs {
			if m := moduleOf(fn); m != "" && mod == runtimeModule {
				mod = m
			}
			switch fn {
			case advancerFrame:
				inAdvancer = true
			case advanceToFrame:
				inAdvanceTo = true
			}
		}
		weights[mod] += s.weight
		if inAdvancer && !inAdvanceTo {
			spin += s.weight
		}
	}
	if total == 0 {
		return a
	}
	for m, w := range weights {
		a.shares[m] = float64(w) / float64(total)
	}
	a.advancer = float64(spin) / float64(total)
	return a
}
