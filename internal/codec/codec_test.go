package codec

import (
	"bytes"
	"strings"
	"testing"
)

var testFormat = Format{Magic: "TST1", Version: 3, Prefix: "test", Noun: "log", Records: "items", MinRecord: 2}

// appendItem encodes one test record: op, then an interned name.
func appendItem(names *Names) func([]byte, string) ([]byte, error) {
	return func(buf []byte, s string) ([]byte, error) {
		buf, id := names.Intern(buf, s)
		return append(buf, OpRecord, byte(id)), nil
	}
}

func decodeItem(r *Reader, names []string) string { return r.Name(names) }

func encodeItems(t *testing.T, items []string, per int) []byte {
	t.Helper()
	var buf bytes.Buffer
	names := NewNames()
	if err := Encode(&testFormat, &buf, 9, []byte("meta"), items, per, appendItem(&names)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	items := []string{"a", "b", "a", "c", "b"}
	for _, per := range []int{0, 1, 2} {
		data := encodeItems(t, items, per)
		h, got, err := Decode(&testFormat, data, decodeItem)
		if err != nil {
			t.Fatalf("per=%d: %v", per, err)
		}
		if h.Version != 3 || h.Seed != 9 || string(h.Meta) != "meta" || strings.Join(got, "") != "abacb" {
			t.Fatalf("per=%d: header %+v, items %q", per, h, got)
		}
		if n := bytes.Count(data, []byte{OpIntern, 1, 'a'}); n != 1 {
			t.Fatalf("per=%d: \"a\" interned %d times, want 1", per, n)
		}
	}
}

func TestContainerRejectsEmptyNameUnlessAllowed(t *testing.T) {
	data := encodeItems(t, []string{""}, 0)
	if _, _, err := Decode(&testFormat, data, decodeItem); err == nil || !strings.Contains(err.Error(), "empty interned string") {
		t.Fatalf("empty name: err=%v", err)
	}
	allow := testFormat
	allow.EmptyNames = true
	if _, got, err := Decode(&allow, data, decodeItem); err != nil || len(got) != 1 {
		t.Fatalf("empty name allowed: got %q, err=%v", got, err)
	}
}

func TestReaderErrorsAreStickyAndLocated(t *testing.T) {
	r := NewReader("test", []byte{0x05, 0xFF})
	if got := r.Uvarint(); got != 5 {
		t.Fatalf("Uvarint = %d", got)
	}
	if b := r.Bytes(1 << 40); b != nil {
		t.Fatal("Bytes returned data for an impossible length")
	}
	err := r.Err()
	if err == nil || !strings.Contains(err.Error(), "test: decode at byte 1: need 1099511627776 bytes, have 1") {
		t.Fatalf("err = %v", err)
	}
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Err() != err {
		t.Fatal("reads after a failure must return zero and keep the first error")
	}
}

func TestFrameCRC(t *testing.T) {
	framed := AppendFrame([]byte{0xAA}, []byte("payload"))
	r := NewReader("test", framed)
	r.Byte()
	if p := r.Frame(); p.Err() != nil || string(p.Bytes(uint64(p.Remaining()))) != "payload" {
		t.Fatalf("frame: err=%v", p.Err())
	}
	framed[len(framed)-1] ^= 1
	r = NewReader("test", framed)
	r.Byte()
	if p := r.Frame(); p.Err() == nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "CRC mismatch") {
		t.Fatalf("corrupt frame: err=%v", r.Err())
	}
}
