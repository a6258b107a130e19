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

// layers are the module's layers the CPU profile is attributed to, plus
// "other" for samples no rule claims (the benchmark's own harness code,
// standard-library work with no repro caller).
var layers = []string{"trace", "bpred", "pipeline", "mem", "iq", "core", "sim", "experiments", "coord", "runtime", "other"}

// helperPackages are repro packages whose samples belong to the layer
// that called them.
var helperPackages = map[string]bool{"stats": true, "uop": true, "bitvec": true, "isa": true, "codec": true}

// gcFramePrefixes mark a sample as the Go runtime's: garbage
// collection, write barriers and allocation, wherever they were entered.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.mallocgc",
}

// hotFunctions are the functions whose cumulative share is reported:
// the share of samples with a matching frame anywhere on the stack.
var hotFunctions = map[string]func(frame string) bool{
	"core.begin_cycle":  exactly("repro/internal/core.(*SegmentedIQ).BeginCycle"),
	"core.promote":      exactly("repro/internal/core.(*SegmentedIQ).promote"),
	"core.deliver_seg":  exactly("repro/internal/core.(*SegmentedIQ).deliverSeg"),
	"pipeline.lsq_tick": exactly("repro/internal/pipeline.(*LSQ).Tick"),
	"runtime.write_barrier": func(f string) bool {
		return hasAnyPrefix(f, []string{"runtime.gcWriteBarrier", "runtime.wbBuf", "runtime.bulkBarrier"})
	},
}

func exactly(name string) func(string) bool { return func(f string) bool { return f == name } }

// attribution is a CPU profile's samples split by layer and by the hot
// functions' cumulative presence.
type attribution struct {
	total int64
	layer map[string]int64
	hot   map[string]int64
}

func (a *attribution) share(layer string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.layer[layer]) / float64(a.total)
}

func (a *attribution) hotShare(name string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.hot[name]) / float64(a.total)
}

// add assigns each sample of a runtime/pprof CPU profile to one layer:
//   - runtime.asyncPreempt is folded into the function it interrupted;
//   - a stack holding a GC, write-barrier or allocation frame is
//     runtime's;
//   - otherwise the leaf-most repro/internal frame names the layer
//     (helper packages defer to their caller);
//   - a stack with no repro frame that runs net/http is coord's, the
//     only HTTP user in the benchmark process;
//   - anything else is runtime's if the leaf is in the runtime, and
//     other's if not.
func (a *attribution) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.frames[loc]...)
		}
		for len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.asyncPreempt") {
			frames = frames[1:]
		}
		a.total += s.count
		a.layer[classify(frames)] += s.count
		for name, match := range hotFunctions {
			for _, f := range frames {
				if match(f) {
					a.hot[name] += s.count
					break
				}
			}
		}
	}
	return nil
}

// classify returns the layer one leaf-first stack belongs to.
func classify(frames []string) string {
	for _, f := range frames {
		if hasAnyPrefix(f, gcFramePrefixes) {
			return "runtime"
		}
	}
	http := false
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			pkg = pkg[:strings.IndexAny(pkg, "./")]
			if helperPackages[pkg] {
				continue
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "net/http.") {
			http = true
		}
	}
	switch {
	case http:
		return "coord"
	case len(frames) > 0 && strings.HasPrefix(frames[0], "runtime."):
		return "runtime"
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// profile is the part of a pprof profile attribution needs.
type profile struct {
	samples []sample
	// frames maps a location id to its function names, leaf first
	// (inlined callees before their callers).
	frames map[uint64][]string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes.
// Only the fields attribution reads are decoded: Profile.sample (2),
// Profile.location (4), Profile.function (5) and Profile.string_table
// (6); Sample.location_id (1) and Sample.value (2); Location.id (1) and
// Location.line (4); Line.function_id (1); Function.id (1) and
// Function.name (2).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{} // function id → name index
		locFns  = map[uint64][]uint64{}
		samples []sample
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{samples: samples, frames: map[uint64][]string{}}
	for id, fns := range locFns {
		for _, fn := range fns {
			if i := funcs[fn]; i >= 0 && i < int64(len(strs)) {
				p.frames[id] = append(p.frames[id], strs[i])
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (b holds the
// varints) or not (v is the value).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
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

// walkFields calls fn for every field of one protobuf message: varint
// fields pass their value, length-delimited ones their bytes (non-nil).
func walkFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}
