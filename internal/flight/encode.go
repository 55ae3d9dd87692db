package flight

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Binary format constants. The container is codec's log container; see
// docs/flightrecorder.md for the event record body.
const (
	// Version is the current format version; Decode rejects any other.
	Version uint16 = 1

	// DefaultSegmentEvents is the recorder's in-memory ring capacity: a
	// full ring is encoded into one CRC-framed segment and spilled to the
	// writer.
	DefaultSegmentEvents = codec.DefaultSegment
)

// format is the .flight instance of the log container. An event record is
// at least 7 bytes: op, cat, code, dt, label, entity, arg.
var format = codec.Format{
	Magic: "FLR1", Version: Version, Prefix: "flight", Noun: "log", Records: "events",
	MinRecord: 7, EmptyNames: true,
}

// encState is the stateful half of the encoding shared by every segment of
// one log: the label intern table and the per-category timestamp delta
// bases. decState mirrors it.
type encState struct {
	names codec.Names
	lastT [NumCategories]sim.Time
}

func newEncState() encState {
	return encState{names: codec.NewNames()}
}

// appendEvent appends ev's payload records (an intern definition first if
// the label is new) to buf, advancing the encoder state.
func (s *encState) appendEvent(buf []byte, ev Event) ([]byte, error) {
	if int(ev.Cat) >= NumCategories {
		//lint:allow hotalloc(misuse error path: formatting happens at most once, after which the recorder is dead)
		return buf, fmt.Errorf("flight: event has unknown category %d", int(ev.Cat))
	}
	dt := ev.T - s.lastT[ev.Cat]
	if dt < 0 {
		//lint:allow hotalloc(misuse error path: formatting happens at most once, after which the recorder is dead)
		return buf, fmt.Errorf("flight: time went backwards in category %v: %v after %v", ev.Cat, ev.T, s.lastT[ev.Cat])
	}
	buf, id := s.names.Intern(buf, ev.Label)
	s.lastT[ev.Cat] = ev.T
	buf = append(buf, codec.OpRecord, byte(ev.Cat), ev.Code)
	buf = binary.AppendUvarint(buf, uint64(dt))
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendVarint(buf, int64(ev.Entity))
	return binary.AppendVarint(buf, ev.Arg), nil
}

// Encode writes a complete flight log for events in segments of
// segmentEvents records (<= 0 selects DefaultSegmentEvents). It is the
// one-shot counterpart of the Recorder, used to build fixtures and
// re-encode decoded logs; encoding the events a Decode returned with the
// same segment size reproduces the original bytes exactly.
func Encode(w io.Writer, seed int64, meta []byte, events []Event, segmentEvents int) error {
	st := newEncState()
	return codec.Encode(&format, w, seed, meta, events, segmentEvents, st.appendEvent)
}
