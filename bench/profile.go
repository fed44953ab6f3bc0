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

// cpuLayers are the packages the CPU fold names. A repo package not
// listed here (bufpool, coin, statesync, stats, the root package) folds
// into "other"; a stack with no repo frame at all folds into "runtime"
// (scheduler, GC workers, netpoll).
var cpuLayers = []string{
	"gf256", "erasure", "merkle", "avid", "ba", "wire", "core", "replica",
	"mempool", "store", "transport", "gateway", "dlclient", "telemetry",
	"simnet", "harness", "bench", "other",
}

// repoPackage maps a symbol name to the repo package that owns it:
// "dledger/internal/telemetry/txtrace.(*Journeys).Proof" is telemetry,
// "main.run" is bench. ok is false for everything outside the repo
// (runtime, crypto/sha256, syscall, ...).
func repoPackage(fn string) (pkg string, ok bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "dledger/bench."):
		return "bench", true
	case strings.HasPrefix(fn, "dledger."):
		return "dledger", true
	case !strings.HasPrefix(fn, "dledger/"):
		return "", false
	}
	rest := strings.TrimPrefix(fn[len("dledger/"):], "internal/")
	if i := strings.IndexAny(rest, "/."); i > 0 {
		return rest[:i], true
	}
	return "", false
}

// stackSample is one profile sample: symbol names innermost first.
type stackSample struct {
	funcs []string
	value int64
}

// foldStacks attributes each sample to the innermost repo package on its
// stack, so time in crypto/sha256 or a write syscall lands on the layer
// that called it, and returns each layer's share of all samples.
func foldStacks(samples []stackSample) map[string]float64 {
	named := map[string]bool{}
	for _, l := range cpuLayers {
		named[l] = true
	}
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.funcs {
			if pkg, ok := repoPackage(fn); ok {
				layer = pkg
				if !named[pkg] {
					layer = "other"
				}
				break
			}
		}
		sums[layer] += s.value
		total += s.value
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range sums {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// topLayer names the repo layer with the largest share.
func topLayer(shares map[string]float64) string {
	best := ""
	for _, l := range cpuLayers {
		if best == "" || shares[l] > shares[best] {
			best = l
		}
	}
	return best
}

// decodeProfile reads a gzipped runtime/pprof CPU profile (profile.proto)
// far enough to recover each sample's symbolised stack and its last
// value (CPU nanoseconds). It is the minimal decoder the fold needs, so
// the benchmark has no dependency outside the standard library.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, varint uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					vals := appendVarints(nil, v, d)
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{value: s.value}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := fnName[f]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, varint uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which arrives either
// packed (data) or as one bare value.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
