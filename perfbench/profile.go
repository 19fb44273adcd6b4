package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader of the gzipped profile.proto that runtime/pprof
// writes, enough to attribute each CPU sample's self time to the
// package of its leaf frame. The module imports nothing outside the
// standard library, so this replaces github.com/google/pprof/profile.

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// pbField is one decoded protobuf field: a varint (or fixed-width
// number) in num, or a length-delimited payload in data.
type pbField struct {
	tag  int
	wire int
	num  uint64
	data []byte
}

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errors.New("profile: bad varint")
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
		case 1:
			n = 8
		case 2:
			var l uint64
			l, n, err = pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errors.New("profile: truncated field")
			}
			f.data = b[n : n+int(l)]
			n += int(l)
		case 5:
			n = 4
		default:
			return nil, fmt.Errorf("profile: wire type %d", f.wire)
		}
		if n > len(b) {
			return nil, errors.New("profile: truncated field")
		}
		out = append(out, f)
		b = b[n:]
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.num}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		x, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

// leafSelfNanos returns the CPU nanoseconds of a runtime/pprof CPU
// profile keyed by the full name of each sample's leaf function (the
// innermost frame, inlined frames included).
func leafSelfNanos(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locLeaf := map[uint64]uint64{}  // location id -> leaf function id
	type sample struct {
		loc   uint64
		nanos int64
	}
	var samples []sample
	for _, f := range top {
		switch f.tag {
		case profStringTable:
			strs = append(strs, string(f.data))
		case profFunction:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.tag {
				case functionID:
					id = g.num
				case functionName:
					name = g.num
				}
			}
			funcName[id] = name
		case profLocation:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			leaf, seen := uint64(0), false
			for _, g := range fs {
				switch g.tag {
				case locationID:
					id = g.num
				case locationLine:
					if seen {
						continue // the first line is the innermost frame
					}
					ls, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.tag == lineFunction {
							leaf, seen = l.num, true
						}
					}
				}
			}
			locLeaf[id] = leaf
		case profSample:
			fs, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			var locs, vals []uint64
			for _, g := range fs {
				switch g.tag {
				case sampleLocationID:
					xs, err := pbInts(g)
					if err != nil {
						return nil, err
					}
					locs = append(locs, xs...)
				case sampleValue:
					xs, err := pbInts(g)
					if err != nil {
						return nil, err
					}
					vals = append(vals, xs...)
				}
			}
			// CPU profiles carry [samples/count, cpu/nanoseconds].
			if len(locs) == 0 || len(vals) < 2 {
				continue
			}
			s.loc, s.nanos = locs[0], int64(vals[1])
			samples = append(samples, s)
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if fn, ok := locLeaf[s.loc]; ok {
			if si, ok := funcName[fn]; ok && si < uint64(len(strs)) {
				name = strs[si]
			}
		}
		out[name] += s.nanos
	}
	return out, nil
}

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "fastsocket/internal/"

// layerOf maps a function's full name to its layer: the internal/
// package it belongs to, or "runtime" for everything outside the
// module (GC, malloc, the standard library and the benchmark itself).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "runtime"
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}
