package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/codec"
)

// FuzzCheckpoint holds DecodeCheckpoint to the decoder contract: never
// panic, never return an empty error, and whatever it accepts must survive
// AppendCheckpoint → DecodeCheckpoint unchanged. With framed set, data is
// a checkpoint body wrapped in a valid magic/version/CRC frame, so
// mutations get past the CRC check and into field parsing.
func FuzzCheckpoint(f *testing.F) {
	enc := AppendCheckpoint(nil, testCheckpoint())
	body := appendCheckpointBody(nil, testCheckpoint())
	for _, seed := range []struct {
		data   []byte
		framed bool
	}{{enc, false}, {body, true}} {
		b := seed.data
		f.Add(b, seed.framed)
		for _, n := range []int{0, 4, 6, 7, 11, len(b) / 2, len(b) - 1} {
			f.Add(b[:n], seed.framed)
		}
		for _, i := range []int{0, 4, 6, 10, len(b) / 3, len(b) / 2, len(b) - 1} {
			mut := append([]byte(nil), b...)
			mut[i] ^= 0x80
			f.Add(mut, seed.framed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			hdr := binary.LittleEndian.AppendUint16([]byte(ckptMagic), CheckpointVersion)
			data = codec.AppendFrame(hdr, data)
		}
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if err.Error() == "" {
				t.Fatal("decode error with empty message")
			}
			return
		}
		again, err := DecodeCheckpoint(AppendCheckpoint(nil, ck))
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(ck, again) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", again, ck)
		}
	})
}
