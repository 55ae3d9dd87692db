package flight

import (
	"fmt"
	"io"

	"repro/internal/codec"
)

// Recorder collects flight events. It runs in one of two modes:
//
//   - recording (NewRecorder): events accumulate in a bounded in-memory
//     ring; each time the ring fills it is encoded into one CRC-framed
//     segment and spilled to the writer, so memory stays bounded no matter
//     how long the run;
//   - verifying (NewVerifier): events are compared in order against a
//     decoded log, and the first divergence is retained for Divergence().
//
// A nil *Recorder is valid everywhere and records nothing; event sites
// guard each tap (`if rec != nil { rec.Record(...) }`), so a disabled
// recorder costs exactly one branch per site. Recording is
// purely observational: it draws no randomness and schedules nothing, so an
// armed recorder never changes simulated metrics.
type Recorder struct {
	// Recording mode.
	w     io.Writer
	enc   encState
	ring  []Event
	total uint64
	err   error

	// payload and frame are spill scratch buffers, reused across segments
	// so a steady-state Record/spill cycle performs no allocation (pinned
	// by TestRecordSteadyStateZeroAlloc).
	payload []byte
	frame   []byte

	// Verifying mode.
	verifying bool
	expected  []Event
	idx       int
	div       *Divergence
}

// NewRecorder starts a flight log on w: the header (format version, seed,
// opaque meta blob) is written immediately, segments follow as the ring
// spills, and Close writes the trailer. segmentEvents bounds the in-memory
// ring (<= 0 selects DefaultSegmentEvents).
func NewRecorder(w io.Writer, seed int64, meta []byte, segmentEvents int) (*Recorder, error) {
	if w == nil {
		return nil, fmt.Errorf("flight: recorder needs a writer")
	}
	if segmentEvents <= 0 {
		segmentEvents = DefaultSegmentEvents
	}
	if err := format.Write(w, format.AppendHeader(nil, seed, meta)); err != nil {
		return nil, err
	}
	return &Recorder{w: w, enc: newEncState(), ring: make([]Event, 0, segmentEvents)}, nil
}

// Record appends one event. Nil-safe. In recording mode a full ring spills
// one segment to the writer; in verifying mode the event is compared
// against the next expected one and the first mismatch is retained.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	if r.verifying {
		r.verify(ev)
		return
	}
	if r.err != nil {
		return
	}
	r.ring = append(r.ring, ev)
	r.total++
	if len(r.ring) == cap(r.ring) {
		r.spill()
	}
}

// spill encodes the ring into one segment and writes it out. The payload
// and frame scratch buffers grow to the segment's steady-state size on the
// first spills and are reused afterwards.
func (r *Recorder) spill() {
	if len(r.ring) == 0 {
		return
	}
	payload, err := codec.AppendPayload(r.payload[:0], r.ring, r.enc.appendEvent)
	if err != nil {
		r.err = err
		return
	}
	r.payload = payload
	r.ring = r.ring[:0]
	r.frame = codec.AppendSegment(r.frame[:0], payload)
	r.err = format.Write(r.w, r.frame)
}

// Flush spills any buffered events without closing the log.
func (r *Recorder) Flush() error {
	if r == nil || r.verifying {
		return nil
	}
	r.spill()
	return r.err
}

// Close flushes and writes the end-of-log trailer. The recorder must not
// be used afterwards. Nil-safe; in verifying mode it is a no-op.
func (r *Recorder) Close() error {
	if r == nil || r.verifying {
		return nil
	}
	r.spill()
	if r.err != nil {
		return r.err
	}
	r.err = format.Write(r.w, codec.AppendTrailer(nil, r.total))
	return r.err
}

// Err returns the first write or encode error, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	return r.err
}

// Events returns the number of events recorded (or, in verifying mode,
// compared) so far.
func (r *Recorder) Events() uint64 {
	if r == nil {
		return 0
	}
	if r.verifying {
		return uint64(r.idx)
	}
	return r.total
}
