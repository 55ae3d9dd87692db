package scenario

import (
	"math"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Decode parses a complete .wtrace. It never panics on corrupt input:
// truncation, a bad CRC, an unknown version, or any malformed field
// returns a diagnosable error (alongside nothing — partial decodes are
// not returned, because replaying a silently shortened trace would
// produce a bogus run).
func Decode(data []byte) (*Trace, error) {
	var st decState
	h, reqs, err := codec.Decode(&format, data, st.req)
	if err != nil {
		return nil, err
	}
	return &Trace{Version: h.Version, Seed: h.Seed, Meta: h.Meta, Reqs: reqs, Bytes: len(data)}, nil
}

// decState mirrors encState on the decoding side.
type decState struct {
	lastT sim.Time
}

// req decodes one request record body.
func (st *decState) req(r *codec.Reader, names []string) Req {
	dt := r.Uvarint()
	if dt > uint64(math.MaxInt64-int64(st.lastT)) {
		r.Failf("arrival delta %d overflows sim time", dt)
	}
	req := Req{T: st.lastT + sim.Time(dt), Class: r.Name(names)}
	st.lastT = req.T
	req.Session = nonNegative(r, "session")
	req.Size = nonNegative(r, "size")
	return req
}

// nonNegative reads a uvarint that must fit in an int64.
func nonNegative(r *codec.Reader, what string) int64 {
	v := r.Uvarint()
	if v > math.MaxInt64 {
		r.Failf("%s %d overflows int64", what, v)
	}
	return int64(v)
}
