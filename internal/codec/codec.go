// Package codec is the one binary framing layer behind the repository's
// on-disk formats: flight logs (.flight), workload traces (.wtrace) and
// controller checkpoints. Each format owns only its record body; the CRC
// frame, the log container (header, segments of intern and body records,
// counted trailer), the bounds-checked reader and the string-intern table
// live here. docs/flightrecorder.md specifies the container.
//
// Decoding never panics on corrupt input and never allocates in
// proportion to a length field it has not checked against the remaining
// bytes; every error names the format and the byte offset.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Container constants shared by every log format.
const (
	// DefaultSegment is the default number of body records per segment.
	DefaultSegment = 1024

	OpIntern byte = 0x01 // payload record: define the next intern-table string
	OpRecord byte = 0x02 // payload record: one format-specific body

	segMarker byte = 0xA5 // frames one segment
	endMarker byte = 0x5A // trailer: end of log + total record count
)

// Format describes one log-container format. Every field is a constant of
// the format, not a tuning knob.
type Format struct {
	Magic   string // 4-byte file magic
	Version uint16 // the only version Decode accepts
	Prefix  string // error prefix, e.g. "flight"
	Noun    string // the container in messages, e.g. "log"
	Records string // the body records in messages, e.g. "events"

	// MinRecord is the smallest encoded body record, op byte included; it
	// bounds a segment's declared record count before any work is done.
	MinRecord int
	// EmptyNames admits the empty string to the intern table.
	EmptyNames bool
}

// Header is a decoded container header.
type Header struct {
	Version uint16
	Seed    int64
	Meta    []byte
}

// Reader is a bounds-checked cursor over encoded bytes with a sticky
// error: after the first failure every read returns a zero value, so a
// decoder reads a whole record and checks Err once. Every length is
// validated against the remaining input before anything is allocated.
type Reader struct {
	prefix string
	data   []byte
	off    int
	base   int // offset of data[0] in the enclosing input
	err    error
}

// NewReader returns a reader over data whose errors start with prefix.
func NewReader(prefix string, data []byte) *Reader {
	return &Reader{prefix: prefix, data: data}
}

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// Failf records a failure at the current byte offset unless one is
// already recorded.
func (r *Reader) Failf(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: decode at byte %d: %s", r.prefix, r.base+r.off, fmt.Sprintf(format, args...))
	}
}

// Bytes returns the next n bytes without copying them.
func (r *Reader) Bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.Failf("need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// Byte returns the next byte.
func (r *Reader) Byte() byte {
	if r.err == nil && r.Remaining() < 1 {
		r.Failf("unexpected end of input")
	}
	if r.err != nil {
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

// le returns the next n-byte little-endian unsigned integer, n <= 8.
func (r *Reader) le(n uint64) uint64 {
	var b [8]byte
	copy(b[:], r.Bytes(n))
	return binary.LittleEndian.Uint64(b[:])
}

// Uvarint returns the next uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint returns the next varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Str returns the next uvarint-length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes(r.Uvarint())) }

// Count returns the next collection length, rejecting one that could not
// fit in the remaining bytes at one byte per element.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.Failf("count %d exceeds remaining %d bytes", n, r.Remaining())
		return 0
	}
	return int(n)
}

// Magic consumes the format's magic string.
func (r *Reader) Magic(magic string) {
	if b := r.Bytes(uint64(len(magic))); r.err == nil && string(b) != magic {
		r.Failf("bad magic %q (want %q)", b, magic)
	}
}

// Version consumes a little-endian uint16 version and rejects any value
// but want; noun names the format in the error.
func (r *Reader) Version(want uint16, noun string) uint16 {
	v := uint16(r.le(2))
	if r.err == nil && v != want {
		r.Failf("unsupported %s version %d (this build reads version %d)", noun, v, want)
	}
	return v
}

// Name reads an intern-table id and returns its string.
func (r *Reader) Name(names []string) string {
	id := r.Uvarint()
	if r.err == nil && id >= uint64(len(names)) {
		r.Failf("string id %d beyond intern table of %d", id, len(names))
	}
	if r.err != nil {
		return ""
	}
	return names[id]
}

// Frame consumes one CRC frame, verifies its checksum, and returns a
// reader over the payload. A failure is recorded on r and carried by the
// returned reader.
func (r *Reader) Frame() *Reader {
	n := r.Uvarint()
	want := uint32(r.le(4))
	start := r.base + r.off
	payload := r.Bytes(n)
	if r.err == nil {
		if got := crc32.ChecksumIEEE(payload); got != want {
			r.Failf("CRC mismatch: computed %#08x, stored %#08x", got, want)
		}
	}
	return &Reader{prefix: r.prefix, data: payload, base: start, err: r.err}
}

// AppendFrame appends payload as one CRC frame.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// AppendHeader appends the container header.
func (f *Format) AppendHeader(buf []byte, seed int64, meta []byte) []byte {
	buf = append(buf, f.Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, f.Version)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // flags, reserved
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seed))
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	return append(buf, meta...)
}

// AppendSegment appends one segment framing payload, as built by
// AppendPayload.
func AppendSegment(buf, payload []byte) []byte {
	return AppendFrame(append(buf, segMarker), payload)
}

// AppendTrailer appends the end-of-log marker with the total record
// count, which tells a complete log from a truncated one.
func AppendTrailer(buf []byte, total uint64) []byte {
	return binary.AppendUvarint(append(buf, endMarker), total)
}

// AppendPayload appends a segment payload: the record count, then each
// record as appendRec encodes it (intern definitions first). Hot callers
// pass a reused scratch buffer (buf[:0]); the bytes do not depend on it.
func AppendPayload[R any](buf []byte, recs []R, appendRec func([]byte, R) ([]byte, error)) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	var err error
	for _, rec := range recs {
		if buf, err = appendRec(buf, rec); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Write writes buf to w, naming the format in a failure.
func (f *Format) Write(w io.Writer, buf []byte) error {
	if _, err := w.Write(buf); err != nil {
		//lint:allow hotalloc(write-failure path: wraps the first error once, then the recorder stays latched on its error)
		return fmt.Errorf("%s: writing %s: %w", f.Prefix, f.Noun, err)
	}
	return nil
}

// Encode writes a complete log holding recs in segments of per records
// (<= 0 selects DefaultSegment). appendRec encodes one record, as for
// AppendPayload.
func Encode[R any](f *Format, w io.Writer, seed int64, meta []byte, recs []R, per int, appendRec func([]byte, R) ([]byte, error)) error {
	if per <= 0 {
		per = DefaultSegment
	}
	buf := f.AppendHeader(nil, seed, meta)
	total := uint64(len(recs))
	var payload []byte // reused across segments
	for len(recs) > 0 {
		n := min(per, len(recs))
		var err error
		if payload, err = AppendPayload(payload[:0], recs[:n], appendRec); err != nil {
			return err
		}
		buf = AppendSegment(buf, payload)
		recs = recs[n:]
	}
	return f.Write(w, AppendTrailer(buf, total))
}

// Names is the encode side of the intern table.
type Names struct {
	ids map[string]uint64
}

// NewNames returns an empty intern table.
func NewNames() Names {
	return Names{ids: make(map[string]uint64)}
}

// Intern returns s's id, first appending the OpIntern record that defines
// it when s is new.
func (n *Names) Intern(buf []byte, s string) ([]byte, uint64) {
	id, ok := n.ids[s]
	if !ok {
		id = uint64(len(n.ids))
		n.ids[s] = id
		buf = AppendString(append(buf, OpIntern), s)
	}
	return buf, id
}

// AppendString appends s with a uvarint length prefix, as Reader.Str reads it.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Decode parses a complete log, calling rec for each body record with the
// reader positioned after the op byte and the intern table so far. rec
// reports a malformed body through the reader. Partial results are never
// returned: replaying a silently shortened log would mislead.
func Decode[R any](f *Format, data []byte, rec func(*Reader, []string) R) (Header, []R, error) {
	r := NewReader(f.Prefix, data)
	var h Header
	r.Magic(f.Magic)
	h.Version = r.Version(f.Version, f.Noun)
	if flags := r.le(2); flags != 0 {
		r.Failf("unknown header flags %#x", flags)
	}
	h.Seed = int64(r.le(8))
	if meta := r.Bytes(r.Uvarint()); len(meta) > 0 {
		h.Meta = append([]byte(nil), meta...)
	}
	var recs []R
	var names []string
	for r.err == nil {
		if r.Remaining() == 0 {
			r.Failf("truncated %s: missing end-of-%s trailer", f.Noun, f.Noun)
			break
		}
		switch marker := r.Byte(); marker {
		case segMarker:
			recs, names = decodeSegment(f, r, recs, names, rec)
		case endMarker:
			total := r.Uvarint()
			switch {
			case r.err != nil:
			case total != uint64(len(recs)):
				r.Failf("trailer declares %d %s, decoded %d", total, f.Records, len(recs))
			case r.Remaining() != 0:
				r.Failf("%d trailing bytes after end-of-%s marker", r.Remaining(), f.Noun)
			default:
				return h, recs, nil
			}
		default:
			r.Failf("unknown frame marker %#x", marker)
		}
	}
	return Header{}, nil, r.err
}

// decodeSegment decodes one segment's frame and payload records.
func decodeSegment[R any](f *Format, r *Reader, recs []R, names []string, rec func(*Reader, []string) R) ([]R, []string) {
	p := r.Frame()
	count := p.Uvarint()
	if p.err == nil && count > uint64(len(p.data)/f.MinRecord+1) {
		p.Failf("segment declares %d %s in a %d-byte payload", count, f.Records, len(p.data))
	}
	var decoded uint64
	for p.err == nil && p.Remaining() > 0 {
		switch op := p.Byte(); op {
		case OpIntern:
			if s := p.Str(); s == "" && !f.EmptyNames {
				p.Failf("empty interned string")
			} else {
				names = append(names, s)
			}
		case OpRecord:
			recs = append(recs, rec(p, names))
			decoded++
		default:
			p.Failf("unknown payload op %#x", op)
		}
	}
	if p.err == nil && decoded != count {
		p.Failf("segment declares %d %s, holds %d", count, f.Records, decoded)
	}
	r.err = p.err
	return recs, names
}
