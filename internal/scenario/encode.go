package scenario

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Binary format constants. The container is codec's log container; see
// docs/scenarios.md for the request record body.
const (
	// Version is the current format version; Decode rejects any other.
	Version uint16 = 1

	// DefaultSegmentReqs is the encoder's segment granularity: requests
	// per CRC-framed segment.
	DefaultSegmentReqs = codec.DefaultSegment
)

// format is the .wtrace instance of the log container. A request record is
// at least 5 bytes: op, dt, class id, session, size.
var format = codec.Format{
	Magic: "WTR1", Version: Version, Prefix: "scenario", Noun: "trace", Records: "requests",
	MinRecord: 5,
}

// encState is the stateful half of the encoding shared by every segment
// of one trace: the class intern table and the timestamp delta base.
// Arrivals form a single nondecreasing stream, so one delta base suffices
// (unlike the flight log's per-category bases). decState mirrors it.
type encState struct {
	names codec.Names
	lastT sim.Time
	n     int // requests encoded so far
}

// appendReq appends r's payload records (an intern definition first if the
// class is new) to buf, advancing the encoder state.
func (s *encState) appendReq(buf []byte, r Req) ([]byte, error) {
	if err := checkReq(s.n, r, s.lastT); err != nil {
		return buf, err
	}
	buf, id := s.names.Intern(buf, r.Class)
	dt := r.T - s.lastT
	s.lastT = r.T
	s.n++
	buf = append(buf, codec.OpRecord)
	buf = binary.AppendUvarint(buf, uint64(dt))
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, uint64(r.Session))
	return binary.AppendUvarint(buf, uint64(r.Size)), nil
}

// Encode writes a complete .wtrace for reqs in segments of segmentReqs
// records (<= 0 selects DefaultSegmentReqs). Encoding the requests a
// Decode returned with the same segment size reproduces the original
// bytes exactly — the round-trip contract the golden conformance suite
// pins.
func Encode(w io.Writer, seed int64, meta []byte, reqs []Req, segmentReqs int) error {
	st := encState{names: codec.NewNames()}
	return codec.Encode(&format, w, seed, meta, reqs, segmentReqs, st.appendReq)
}

// Encode writes the trace with the default segment size.
func (t *Trace) Encode(w io.Writer) error {
	return Encode(w, t.Seed, t.Meta, t.Reqs, DefaultSegmentReqs)
}

// WriteFile encodes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MaxFileBytes caps the .wtrace files ReadFile accepts: 64 MiB, thousands
// of times the calibrated traces, so a path naming an endless stream (a
// device, a pipe) fails with an error instead of exhausting memory.
const MaxFileBytes = 64 << 20

// ReadFile reads and decodes a .wtrace file of at most MaxFileBytes.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxFileBytes+1))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if len(data) > MaxFileBytes {
		return nil, fmt.Errorf("scenario: trace %s exceeds the %d-byte cap", path, MaxFileBytes)
	}
	return Decode(data)
}
