package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the traced run's CPU-share layers, in report order: the
// module's packages, the benchmark's own code, and "runtime" for samples
// with no frame from the module (GC workers, scheduler, idle syscalls).
var cpuBuckets = []string{
	"eigtree", "faults", "core", "rsm", "sim", "fabric", "transport",
	"adversary", "shiftgears", "consensus", "obs", "trace", "bench", "other", "runtime",
}

// bucketOf maps a function name to its CPU bucket, or "" when the frame
// does not belong to the module.
func bucketOf(fn string) string {
	pkg := fn
	// The package path ends at the first '.' after the last '/'.
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "shiftgears/perfbench": // the binary, or its test
		return "bench"
	case pkg == "shiftgears":
		return "shiftgears"
	case strings.HasPrefix(pkg, "shiftgears/internal/"):
		name := strings.TrimPrefix(pkg, "shiftgears/internal/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case strings.HasPrefix(pkg, "shiftgears/"):
		return "other"
	}
	return ""
}

// cpuShares accumulates profile samples per bucket.
type cpuShares map[string]int64

// addProfile decodes a gzipped pprof CPU profile (the subset of
// profile.proto this needs: samples, locations with their inlined lines,
// functions, strings) and charges each sample to the innermost frame
// that belongs to the module.
func (cs cpuShares) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []int64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						values = append(values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
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
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		bucket := "runtime"
	frames:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if b := bucketOf(strs[idx]); b != "" {
					bucket = b
					break frames
				}
			}
		}
		cs[bucket] += s.count
	}
	return nil
}

func (cs cpuShares) total() int64 {
	var t int64
	for _, c := range cs {
		t += c
	}
	return t
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// forFields walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func forFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
