package flight

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
)

// sampleEvents returns a deterministic event stream exercising every
// category, label reuse, and non-monotone cross-category timestamps.
func sampleEvents() []Event {
	ms := func(n int64) sim.Time { return sim.Time(n) * sim.Time(1e6) }
	return []Event{
		{T: ms(1), Cat: CatSend, Code: KindTune, Label: "ixp>x86", Entity: 2, Arg: -64},
		{T: ms(1), Cat: CatApply, Code: KindTune, Label: "x86", Entity: 2, Arg: -64},
		{T: ms(2), Cat: CatWeight, Code: 0, Label: "x86", Entity: 2, Arg: 192},
		{T: ms(3), Cat: CatSend, Code: KindTrigger, Label: "ixp>x86", Entity: 1, Arg: 0},
		{T: ms(3), Cat: CatApply, Code: KindTrigger, Label: "x86", Entity: 1, Arg: 0},
		{T: ms(3), Cat: CatBoost, Code: 0, Label: "x86", Entity: 1, Arg: 0},
		{T: ms(4), Cat: CatIXP, Code: IXPThreads, Label: "ixp", Entity: 0, Arg: 3},
		{T: ms(5), Cat: CatIXP, Code: IXPPoll, Label: "ixp", Entity: 1, Arg: 50_000},
		{T: ms(6), Cat: CatAdmit, Code: AdmitServed, Label: "web", Entity: -1, Arg: 0},
		{T: ms(6), Cat: CatAdmit, Code: AdmitShed, Label: "web", Entity: -1, Arg: 2},
		{T: ms(7), Cat: CatAdmit, Code: AdmitExpired, Label: "db", Entity: -1, Arg: 1},
		{T: ms(8), Cat: CatBreaker, Code: BreakerOpen, Label: "ixp-uplink", Entity: -1, Arg: int64(BreakerClosed)},
		{T: ms(9), Cat: CatLease, Code: LeaseSuspect, Label: "gpu", Entity: -1, Arg: 0},
		{T: ms(10), Cat: CatLease, Code: LeaseDead, Label: "gpu", Entity: -1, Arg: 0},
		{T: ms(11), Cat: CatIXP, Code: IXPGateShed, Label: "ixp", Entity: 2, Arg: 9001},
		{T: ms(12), Cat: CatIXP, Code: IXPShedRate, Label: "bid", Entity: -1, Arg: 4},
		{T: ms(13), Cat: CatLease, Code: LeaseRejoin, Label: "gpu", Entity: -1, Arg: 0},
		{T: ms(14), Cat: CatLease, Code: LeaseQuarantine, Label: "gpu", Entity: 3, Arg: 0},
		{T: ms(15), Cat: CatBreaker, Code: BreakerHalfOpen, Label: "ixp-uplink", Entity: -1, Arg: int64(BreakerOpen)},
		{T: ms(15), Cat: CatSend, Code: KindShed, Label: "x86>ixp", Entity: -1, Arg: 120},
	}
}

func encodeSample(t *testing.T, segmentEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, 42, []byte(`{"run":"sample"}`), sampleEvents(), segmentEvents); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTripByteIdentical(t *testing.T) {
	for _, seg := range []int{0, 3, 7, 1024} {
		data := encodeSample(t, seg)
		l, err := Decode(data)
		if err != nil {
			t.Fatalf("seg=%d Decode: %v", seg, err)
		}
		if l.Seed != 42 || string(l.Meta) != `{"run":"sample"}` {
			t.Fatalf("seg=%d header mismatch: seed=%d meta=%q", seg, l.Seed, l.Meta)
		}
		want := sampleEvents()
		if len(l.Events) != len(want) {
			t.Fatalf("seg=%d decoded %d events, want %d", seg, len(l.Events), len(want))
		}
		for i := range want {
			if l.Events[i] != want[i] {
				t.Fatalf("seg=%d event %d: got %v, want %v", seg, i, l.Events[i], want[i])
			}
		}
		segN := seg
		if segN <= 0 {
			segN = DefaultSegmentEvents
		}
		var re bytes.Buffer
		if err := Encode(&re, l.Seed, l.Meta, l.Events, segN); err != nil {
			t.Fatalf("seg=%d re-encode: %v", seg, err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("seg=%d re-encode not byte-identical: %d vs %d bytes", seg, re.Len(), len(data))
		}
	}
}

func TestRecorderMatchesEncode(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, 42, []byte(`{"run":"sample"}`), 3)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	for _, ev := range events {
		rec.Record(ev)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if rec.Events() != uint64(len(events)) {
		t.Fatalf("Events() = %d, want %d", rec.Events(), len(events))
	}
	if !bytes.Equal(buf.Bytes(), encodeSample(t, 3)) {
		t.Fatal("incremental Recorder output differs from one-shot Encode")
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Cat: CatSend})
	if err := r.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if r.Err() != nil || r.Events() != 0 || r.Divergence() != nil {
		t.Fatal("nil recorder reported state")
	}
}

func TestInterningSingleDefinition(t *testing.T) {
	data := encodeSample(t, 4) // "x86" spans segments
	if n := bytes.Count(data, []byte{codec.OpIntern, 3, 'x', '8', '6'}); n != 1 {
		t.Fatalf(`label "x86" interned %d times, want 1`, n)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := encodeSample(t, 5)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"future version", func(b []byte) []byte { b[4], b[5] = 0xFF, 0xFF; return b }, "unsupported log version"},
		{"unknown flags", func(b []byte) []byte { b[6] = 1; return b }, "unknown header flags"},
		{"truncated", func(b []byte) []byte { return b[:len(b)-4] }, ""},
		{"missing trailer", func(b []byte) []byte { return b[:len(b)-2] }, "truncated log"},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xEE) }, "trailing bytes"},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-10] ^= 0x40; return b }, "CRC mismatch"},
		{"empty", func(b []byte) []byte { return nil }, "need 4 bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), good...))
			l, err := Decode(b)
			if err == nil {
				t.Fatalf("Decode accepted corrupt input (%d events)", len(l.Events))
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEncodeRejectsBadEvents(t *testing.T) {
	var buf bytes.Buffer
	err := Encode(&buf, 0, nil, []Event{{Cat: Category(NumCategories)}}, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown category") {
		t.Fatalf("unknown category: err=%v", err)
	}
	buf.Reset()
	err = Encode(&buf, 0, nil, []Event{
		{T: 10, Cat: CatSend}, {T: 5, Cat: CatSend},
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "time went backwards") {
		t.Fatalf("backwards time: err=%v", err)
	}
}

func TestVerifierCleanAndDivergent(t *testing.T) {
	log, err := Decode(encodeSample(t, 0))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	events := sampleEvents()

	t.Run("clean", func(t *testing.T) {
		v := NewVerifier(log)
		for _, ev := range events {
			v.Record(ev)
		}
		if d := v.Divergence(); d != nil {
			t.Fatalf("clean replay diverged: %v", d)
		}
	})
	t.Run("mismatch", func(t *testing.T) {
		v := NewVerifier(log)
		for i, ev := range events {
			if i == 4 {
				ev.Arg++
			}
			v.Record(ev)
		}
		d := v.Divergence()
		if d == nil || d.Index != 4 || d.Want == nil || d.Got == nil {
			t.Fatalf("want divergence at 4, got %v", d)
		}
		if d.Want.T != events[4].T || d.Want.Cat != events[4].Cat {
			t.Fatalf("divergence lost sim-time/category: %v", d)
		}
		if s := d.String(); !strings.Contains(s, "event 4") || !strings.Contains(s, "[apply]") {
			t.Fatalf("rendering misses index or category: %q", s)
		}
	})
	t.Run("extra event", func(t *testing.T) {
		v := NewVerifier(log)
		for _, ev := range events {
			v.Record(ev)
		}
		extra := Event{T: events[len(events)-1].T + 1, Cat: CatSend, Code: KindTune, Label: "ixp>x86", Entity: 9, Arg: 1}
		v.Record(extra)
		d := v.Divergence()
		if d == nil || d.Index != len(events) || d.Want != nil || d.Got == nil || *d.Got != extra {
			t.Fatalf("extra event not flagged: %v", d)
		}
		if !strings.Contains(d.String(), "beyond the end of the log") {
			t.Fatalf("rendering: %q", d.String())
		}
	})
	t.Run("missing event", func(t *testing.T) {
		v := NewVerifier(log)
		for _, ev := range events[:len(events)-1] {
			v.Record(ev)
		}
		d := v.Divergence()
		if d == nil || d.Index != len(events)-1 || d.Got != nil || d.Want == nil {
			t.Fatalf("missing event not flagged: %v", d)
		}
	})
}

func TestDiff(t *testing.T) {
	a, err := Decode(encodeSample(t, 0))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	b, err := Decode(encodeSample(t, 6))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if d := Diff(a, b); !d.Identical() {
		t.Fatalf("identical logs diffed: %v", d)
	}
	// Drop one admit event from b: first divergence plus a category delta.
	drop := 9
	b.Events = append(b.Events[:drop:drop], b.Events[drop+1:]...)
	d := Diff(a, b)
	if d.Identical() || d.First == nil || d.First.Index != drop {
		t.Fatalf("dropped event not found: %+v", d)
	}
	found := false
	for _, cd := range d.Categories {
		if cd.Category == CatAdmit && cd.A == cd.B+1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("admit category delta missing: %+v", d.Categories)
	}
	if s := d.String(); !strings.Contains(s, "[admit]") {
		t.Fatalf("diff rendering: %q", s)
	}
}

func TestInfo(t *testing.T) {
	data := encodeSample(t, 0)
	l, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	info := l.Info()
	if info.Events != len(sampleEvents()) || info.Bytes != len(data) {
		t.Fatalf("info counts: %+v", info)
	}
	if info.BytesPerEvent <= 0 {
		t.Fatalf("bytes/event not computed: %+v", info)
	}
	if info.First != sampleEvents()[0].T || info.Last != sampleEvents()[len(sampleEvents())-1].T {
		t.Fatalf("info time range: %+v", info)
	}
	var total int
	for _, c := range info.Categories {
		total += c.Count
	}
	if total != info.Events {
		t.Fatalf("category counts sum to %d, want %d", total, info.Events)
	}
	for i := 1; i < len(info.Labels); i++ {
		if info.Labels[i-1].Label >= info.Labels[i].Label {
			t.Fatalf("labels not sorted: %+v", info.Labels)
		}
	}
}

func TestEventString(t *testing.T) {
	for _, ev := range sampleEvents() {
		s := ev.String()
		if !strings.Contains(s, "["+ev.Cat.String()+"]") {
			t.Fatalf("event rendering misses category: %q", s)
		}
	}
	weird := Event{Cat: Category(250), Code: 9}
	if s := weird.String(); !strings.Contains(s, "Category(250)") {
		t.Fatalf("unknown category rendering: %q", s)
	}
}
