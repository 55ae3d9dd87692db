package flight

import (
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Log is a fully decoded flight log.
type Log struct {
	Version uint16
	Seed    int64
	Meta    []byte  // opaque header blob (the facade stores run config JSON here)
	Events  []Event // global emission order
	Bytes   int     // encoded size the log was decoded from
}

// Decode parses a complete flight log. It never panics on corrupt input:
// truncation, a bad CRC, an unknown version, or any malformed field returns
// a diagnosable error (alongside nothing — partial decodes are not
// returned, because a replay against a silently shortened log would report
// a bogus divergence).
func Decode(data []byte) (*Log, error) {
	var st decState
	h, events, err := codec.Decode(&format, data, st.event)
	if err != nil {
		return nil, err
	}
	return &Log{Version: h.Version, Seed: h.Seed, Meta: h.Meta, Events: events, Bytes: len(data)}, nil
}

// decState mirrors encState on the decoding side.
type decState struct {
	lastT [NumCategories]sim.Time
}

// event decodes one event record body.
func (st *decState) event(r *codec.Reader, names []string) Event {
	var ev Event
	if cat := r.Byte(); int(cat) < NumCategories {
		ev.Cat = Category(cat)
	} else {
		r.Failf("unknown event category %d", cat)
		return ev
	}
	ev.Code = r.Byte()
	dt, last := r.Uvarint(), st.lastT[ev.Cat]
	if dt > uint64(math.MaxInt64-int64(last)) {
		r.Failf("timestamp delta %d overflows sim time", dt)
	}
	ev.T = last + sim.Time(dt)
	st.lastT[ev.Cat] = ev.T
	ev.Label = r.Name(names)
	entity := r.Varint()
	if entity < math.MinInt32 || entity > math.MaxInt32 {
		r.Failf("entity %d outside int32 range", entity)
	}
	ev.Entity = int32(entity)
	ev.Arg = r.Varint()
	return ev
}

// CategoryCount is one category's event tally.
type CategoryCount struct {
	Category Category
	Count    int
}

// LabelCount is one label's (island, domain, queue, endpoint) event tally.
type LabelCount struct {
	Label string
	Count int
}

// Info summarises a decoded log for inspection.
type Info struct {
	Version       uint16
	Seed          int64
	Meta          []byte
	Events        int
	Bytes         int
	BytesPerEvent float64 // amortized over the whole file, header included
	First, Last   sim.Time
	Categories    []CategoryCount // declaration order, zero counts omitted
	Labels        []LabelCount    // sorted by label
}

// Info computes per-category and per-label statistics.
func (l *Log) Info() Info {
	info := Info{
		Version: l.Version,
		Seed:    l.Seed,
		Meta:    l.Meta,
		Events:  len(l.Events),
		Bytes:   l.Bytes,
	}
	if len(l.Events) > 0 {
		info.BytesPerEvent = float64(l.Bytes) / float64(len(l.Events))
		info.First = l.Events[0].T
		info.Last = l.Events[len(l.Events)-1].T
	}
	var cats [NumCategories]int
	labels := make(map[string]int)
	for _, ev := range l.Events {
		cats[ev.Cat]++
		labels[ev.Label]++
	}
	for c, n := range cats {
		if n > 0 {
			info.Categories = append(info.Categories, CategoryCount{Category: Category(c), Count: n})
		}
	}
	names := make([]string, 0, len(labels))
	for name := range labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		info.Labels = append(info.Labels, LabelCount{Label: name, Count: labels[name]})
	}
	return info
}
