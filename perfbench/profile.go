package main

// CPU-profile attribution. The traced run profiles the layers the
// benchmark cannot time from outside — everything inside sim.RunWith
// or the HTTP handler — and charges each sample to exactly one layer,
// so the layer self times partition the profile.
//
// The rule, applied to a sample's stack from the leaf outwards:
//
//   - the innermost utlb/internal/<pkg> frame names the layer, so
//     runtime helpers (map access, malloc, write barriers) count
//     toward the repo function that called them;
//   - frames of the 3C classifier, sim.(*classifier), are split out
//     of sim as "sim.classifier";
//   - benchmark frames (package main) count like repo frames: a
//     sample whose innermost repo-or-benchmark frame is the
//     benchmark's goes to "transport" when a net or net/* frame lies
//     inside it (the load clients' socket work) and to "bench"
//     otherwise (their request encoding and reply checking);
//   - a stack with no repo or benchmark frame goes to "transport"
//     when it has a net or net/* frame (the server's connection
//     loop) and to "runtime" (GC, scheduler, idle threads) otherwise.
//
// runtime/pprof writes a gzipped profile.proto; decodeProfile reads
// the few fields attribution needs with a minimal protobuf decoder
// (the module has no third-party dependencies).

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
)

const repoPrefix = "utlb/internal/"

// profileLayers are the layers a sample can be charged to, in report
// order. Each is reported as <layer>.self_s. Repo packages outside
// this list fold into "other".
var profileLayers = []string{
	"experiments", "parallel", "workload", "trace",
	"sim", "sim.classifier", "core", "tlbcache", "nicsim",
	"bus", "phys", "hostos", "vm", "intrbase", "event",
	"serve", "xlate", "telemetry",
	"bench", "transport", "runtime", "other",
}

// setupFuncs are the run-setup constructors sim.RunWith calls once per
// run; samples with any of them on the stack are sim.setup.self_s.
var setupFuncs = []string{
	"utlb/internal/hostos.New",
	"utlb/internal/phys.NewMemory",
	"utlb/internal/trace.Trace.Footprint",
	"utlb/internal/core.NewDriverWith",
	"utlb/internal/core.NewLib",
	"utlb/internal/core.NewPolicy",
	"utlb/internal/intrbase.NewWith",
}

// attributeStack charges one stack (function names, leaf first) to a
// layer.
func attributeStack(stack []string) string {
	for i, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			// Benchmark code (the load clients): its own work, unless
			// it was inside the network stack.
			if slices.ContainsFunc(stack[:i], isNet) {
				return "transport"
			}
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		if strings.HasPrefix(rest, "sim.(*classifier)") {
			return "sim.classifier"
		}
		pkg := rest
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		pkg = strings.ReplaceAll(pkg, "/", ".")
		if slices.Contains(profileLayers, pkg) {
			return pkg
		}
		return "other"
	}
	if slices.ContainsFunc(stack, isNet) {
		return "transport"
	}
	return "runtime"
}

func isNet(fn string) bool { return strings.HasPrefix(fn, "net.") || strings.HasPrefix(fn, "net/") }

// genFuncs generate traces; samples with one on the stack are the
// trace generation a suite pass pays inside its experiments.
var genFuncs = []string{"utlb/internal/workload.(*Spec).Generate"}

// onStack reports whether any of funcs (or a closure inside one) is on
// stack.
func onStack(stack, funcs []string) bool {
	for _, fn := range stack {
		for _, s := range funcs {
			if fn == s || strings.HasPrefix(fn, s+".func") {
				return true
			}
		}
	}
	return false
}

// isSetupStack reports whether a run-setup constructor is on stack.
func isSetupStack(stack []string) bool { return onStack(stack, setupFuncs) }

// attribution is a profile charged to layers.
type attribution struct {
	samples int64
	totalNS int64
	layerNS map[string]int64
	setupNS int64
	genNS   int64 // samples under trace generation (overlaps the layers)
}

// sumLayers is the time of the reported layers: the whole profile
// when every sample went to a layer in profileLayers.
func (a *attribution) sumLayers() int64 {
	var n int64
	for _, l := range profileLayers {
		n += a.layerNS[l]
	}
	return n
}

// seconds returns layer's self time.
func (a *attribution) seconds(layer string) float64 { return float64(a.layerNS[layer]) / 1e9 }

// report adds every layer's self time and the setup-constructor time.
func (a *attribution) report(m metrics) {
	for _, l := range profileLayers {
		m.set(l+".self_s", a.seconds(l), "s")
	}
	m.set("sim.setup.self_s", float64(a.setupNS)/1e9, "s")
}

// attributeProfile decodes a runtime/pprof CPU profile and charges its
// samples.
func attributeProfile(raw []byte) (*attribution, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	a := &attribution{layerNS: map[string]int64{}}
	for _, s := range p.samples {
		stack := p.stack(s.locs)
		ns := s.value(p.cpuIndex)
		a.samples += s.value(0)
		a.totalNS += ns
		a.layerNS[attributeStack(stack)] += ns
		if isSetupStack(stack) {
			a.setupNS += ns
		}
		if onStack(stack, genFuncs) {
			a.genNS += ns
		}
	}
	return a, nil
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
	types     []int64 // sample_type type string indices
	cpuIndex  int     // value index of cpu/nanoseconds
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (s sample) value(i int) int64 {
	if i < len(s.values) {
		return s.values[i]
	}
	return 0
}

// stack resolves location ids to function names, leaf first, inlined
// frames expanded innermost first.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, f := range p.locations[l] {
			if idx, ok := p.functions[f]; ok && idx >= 0 && int(idx) < len(p.strings) {
				out = append(out, p.strings[idx])
			}
		}
	}
	return out
}

func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}, cpuIndex: 1}
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var typ int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.types = append(p.types, typ)
		case 2: // sample
			var s sample
			if err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := eachField(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, typ := range p.types {
		if typ >= 0 && int(typ) < len(p.strings) && p.strings[typ] == "cpu" {
			p.cpuIndex = i
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", field)
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", field)
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
