package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// noModule is the bucket for samples whose stack has no frame of this
// repository: garbage collection workers, the scheduler and the profiler.
const noModule = "runtime.gc"

// moduleOf maps a pprof function name to the repository module it belongs
// to: "repro/internal/mac.(*MAC).onSlot" is "mac", and the benchmark's own
// package ("main", or "repro/perfbench" in its test binary) is "bench".
// Functions outside the repository map to "".
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
		return "bench"
	}
	return ""
}

// attribute charges each sample of a gzipped pprof CPU profile to the
// innermost frame on its stack that belongs to a repository module (inlined
// frames included), and returns CPU time per module. Samples with no such
// frame go to noModule.
func attribute(gz []byte) (map[string]time.Duration, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	locModule := make(map[uint64]string, len(p.locations))
	for id, lines := range p.locations {
		for _, fn := range lines {
			if m := moduleOf(p.strings[p.functions[fn]]); m != "" {
				locModule[id] = m
				break
			}
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range p.samples {
		m := noModule
		for _, loc := range s.locs {
			if lm, ok := locModule[loc]; ok {
				m = lm
				break
			}
		}
		out[m] += time.Duration(s.value)
	}
	return out, nil
}

// profile is the part of a pprof profile.proto message attribution needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id -> name string index
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []profSample
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes. It reads
// only the fields listed in profile.proto that attribution uses:
// Profile.sample_type(1), sample(2), location(4), function(5),
// string_table(6); Sample.location_id(1), value(2); Location.id(1),
// line(4); Line.function_id(1); Function.id(1), name(2).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{functions: make(map[uint64]int64), locations: make(map[uint64][]uint64)}
	var sampleTypes [][]byte
	var rawSamples [][]byte
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, b)
		case 2:
			rawSamples = append(rawSamples, b)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU time is the value whose sample type is "cpu".
	cpuIdx := -1
	for i, st := range sampleTypes {
		err := fields(st, func(num int, v uint64, _ []byte) error {
			if num == 1 && int(v) < len(p.strings) && p.strings[v] == "cpu" {
				cpuIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if cpuIdx < 0 && len(rawSamples) > 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	for _, b := range rawSamples {
		var s profSample
		var values []int64
		err := fields(b, func(num int, v uint64, b []byte) (err error) {
			switch num {
			case 1:
				s.locs, err = appendVarints(s.locs, v, b)
			case 2:
				var vs []uint64
				vs, err = appendVarints(nil, v, b)
				for _, x := range vs {
					values = append(values, int64(x))
				}
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx >= len(values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s.value = values[cpuIdx]
		p.samples = append(p.samples, s)
	}
	for _, fns := range p.locations {
		for _, fn := range fns {
			if name, ok := p.functions[fn]; !ok || name < 0 || int(name) >= len(p.strings) {
				return nil, fmt.Errorf("profile: bad function %d", fn)
			}
		}
	}
	return p, nil
}

// fields walks the fields of one protobuf message, calling fn with the field
// number and either the varint value (b == nil) or the length-delimited
// bytes (b != nil). Fixed-width fields are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's elements: one value when
// it was encoded unpacked (b == nil), every value of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("profile: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
