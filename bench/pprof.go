package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file decodes the pprof profile format (gzipped protocol buffers,
// profile.proto) with the standard library alone: only the fields the
// attribution needs are read, and everything else is skipped.

// profile is a decoded pprof profile reduced to call stacks.
type profile struct {
	sampleTypes []string // value names, e.g. "samples", "cpu", "alloc_objects"
	samples     []sample
}

// sample is one profile sample: its stack, leaf first, and its values in
// sampleTypes order.
type sample struct {
	stack  []string
	values []int64
}

// valueIndex returns the index of the named sample type, or -1.
func (p *profile) valueIndex(name string) int {
	for i, t := range p.sampleTypes {
		if t == name {
			return i
		}
	}
	return -1
}

// Field numbers of profile.proto.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// Protocol-buffer wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// field is one decoded protocol-buffer field: a varint value or, for the
// length-delimited wire type, its bytes.
type field struct {
	num  int
	wire int
	u    uint64
	b    []byte
}

// fields splits an encoded message into its fields.
func fields(msg []byte) ([]field, error) {
	var out []field
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errors.New("pprof: bad field key")
		}
		msg = msg[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case wireVarint:
			f.u, n = binary.Uvarint(msg)
			if n <= 0 {
				return nil, errors.New("pprof: bad varint")
			}
			msg = msg[n:]
		case wireI64, wireI32:
			size := 8
			if f.wire == wireI32 {
				size = 4
			}
			if len(msg) < size {
				return nil, errors.New("pprof: truncated fixed-width field")
			}
			msg = msg[size:]
		case wireBytes:
			size, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < size {
				return nil, errors.New("pprof: truncated length-delimited field")
			}
			f.b = msg[n : n+int(size)]
			msg = msg[n+int(size):]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f field) varints() ([]uint64, error) {
	if f.wire == wireVarint {
		return []uint64{f.u}, nil
	}
	if f.wire != wireBytes {
		return nil, fmt.Errorf("pprof: field %d is not an integer list", f.num)
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a pprof profile, gzipped or not.
func parseProfile(data []byte) (*profile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	top, err := fields(data)
	if err != nil {
		return nil, err
	}

	var (
		strs      []string
		typeIdx   []uint64
		rawSample [][]byte
		locFuncs  = map[uint64][]uint64{} // location -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> string index
	)
	for _, f := range top {
		switch f.num {
		case fProfileStrings:
			strs = append(strs, string(f.b))
		case fProfileSampleType:
			vt, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var idx uint64
			for _, g := range vt {
				if g.num == fValueTypeType {
					idx = g.u
				}
			}
			typeIdx = append(typeIdx, idx)
		case fProfileSample:
			rawSample = append(rawSample, f.b)
		case fProfileLocation:
			loc, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range loc {
				switch g.num {
				case fLocationID:
					id = g.u
				case fLocationLine:
					line, err := fields(g.b)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == fLineFunction {
							fns = append(fns, h.u)
						}
					}
				}
			}
			locFuncs[id] = fns
		case fProfileFunction:
			fn, err := fields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fn {
				switch g.num {
				case fFunctionID:
					id = g.u
				case fFunctionName:
					name = g.u
				}
			}
			funcName[id] = name
		}
	}

	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("pprof: string index %d out of range", i)
		}
		return strs[i], nil
	}
	p := &profile{}
	for _, i := range typeIdx {
		s, err := str(i)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, s)
	}
	for _, raw := range rawSample {
		sf, err := fields(raw)
		if err != nil {
			return nil, err
		}
		var s sample
		for _, g := range sf {
			vals, err := g.varints()
			if err != nil {
				return nil, err
			}
			switch g.num {
			case fSampleLocation:
				for _, loc := range vals {
					for _, fid := range locFuncs[loc] {
						name, err := str(funcName[fid])
						if err != nil {
							return nil, err
						}
						s.stack = append(s.stack, name)
					}
				}
			case fSampleValue:
				for _, v := range vals {
					s.values = append(s.values, int64(v))
				}
			}
		}
		if len(s.values) != len(p.sampleTypes) {
			return nil, fmt.Errorf("pprof: sample has %d values for %d types", len(s.values), len(p.sampleTypes))
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}
