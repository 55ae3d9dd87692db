package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Kind names a trace generator family.
type Kind string

// The generator catalog. Each family stresses a workload shape the
// paper's closed-loop RUBiS client cannot express; see docs/scenarios.md
// for the catalog's intent and knobs.
const (
	// FlashCrowd is a steady arrival process with a multiplicative rate
	// spike concentrated on a hot item (view/bid heavy) — the overload
	// plane's canonical trigger.
	FlashCrowd Kind = "flash-crowd"
	// Diurnal follows a raised-cosine day/night curve over Period.
	Diurnal Kind = "diurnal"
	// HeavyTail draws Pareto-distributed session lengths: most sessions
	// are a few requests, a heavy tail browses for hundreds.
	HeavyTail Kind = "heavy-tail"
	// MLServing models an inference tier: batched arrivals of light and
	// heavy requests with periodic model-update writes.
	MLServing Kind = "ml-serving"
	// KVTier models a memcached-style key-value tier: a high-rate stream
	// of cheap gets with occasional scans and sets over a fixed
	// connection pool.
	KVTier Kind = "kv-tier"
)

// Kinds returns the generator families in catalog order.
func Kinds() []Kind {
	return []Kind{FlashCrowd, Diurnal, HeavyTail, MLServing, KVTier}
}

// GenSpec parameterizes one generator run. Zero values take the
// per-family defaults noted on each field; every generated trace is a
// pure function of the spec (including Seed).
type GenSpec struct {
	Kind     Kind
	Duration sim.Time // trace span (required)
	Rate     float64  // mean arrival rate, requests/second (default 40)
	Seed     int64    // generator seed (default 1)

	// Flash-crowd knobs.
	SpikeStart  sim.Time // spike onset (default Duration/3)
	SpikeLen    sim.Time // spike length (default Duration/6)
	SpikeFactor float64  // in-spike rate multiplier (default 8)

	// Diurnal knobs.
	Period     sim.Time // day length (default Duration: one full cycle)
	NightFloor float64  // trough rate as a fraction of Rate (default 0.15)

	// Heavy-tail knobs.
	Alpha      float64  // Pareto shape of session lengths (default 1.3)
	SessionMin float64  // minimum session length, requests (default 3)
	Think      sim.Time // mean in-session think time (default 400ms)

	// ML-serving knobs.
	HeavyFraction float64  // fraction of heavy inferences (default 0.2)
	Batch         int      // requests per arrival batch (default 4)
	UpdatePeriod  sim.Time // model-update cadence (default 10s)

	// KV-tier knobs.
	ReadFraction float64 // fraction of gets (default 0.85)
	ScanFraction float64 // fraction of scans (default 0.05)
}

func (s *GenSpec) applyDefaults() {
	if s.Rate == 0 {
		s.Rate = 40
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.SpikeStart == 0 {
		s.SpikeStart = s.Duration / 3
	}
	if s.SpikeLen == 0 {
		s.SpikeLen = s.Duration / 6
	}
	if s.SpikeFactor == 0 {
		s.SpikeFactor = 8
	}
	if s.Period == 0 {
		s.Period = s.Duration
	}
	if s.NightFloor == 0 {
		s.NightFloor = 0.15
	}
	if s.Alpha == 0 {
		s.Alpha = 1.3
	}
	if s.SessionMin == 0 {
		s.SessionMin = 3
	}
	if s.Think == 0 {
		s.Think = 400 * sim.Millisecond
	}
	if s.HeavyFraction == 0 {
		s.HeavyFraction = 0.2
	}
	if s.Batch == 0 {
		s.Batch = 4
	}
	if s.UpdatePeriod == 0 {
		s.UpdatePeriod = 10 * sim.Second
	}
	if s.ReadFraction == 0 {
		s.ReadFraction = 0.85
	}
	if s.ScanFraction == 0 {
		s.ScanFraction = 0.05
	}
}

// Validate reports the first configuration error in the spec (before
// defaults are applied to the zero fields).
func (s GenSpec) Validate() error {
	known := false
	for _, k := range Kinds() {
		if s.Kind == k {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("scenario: unknown generator kind %q (have %v)", s.Kind, Kinds())
	}
	switch {
	case s.Duration <= 0:
		return fmt.Errorf("scenario: generator %s needs a positive duration, got %v", s.Kind, s.Duration)
	case s.Rate < 0:
		return fmt.Errorf("scenario: negative rate %g", s.Rate)
	case s.SpikeFactor < 0:
		return fmt.Errorf("scenario: negative spike factor %g", s.SpikeFactor)
	case s.SpikeStart < 0 || s.SpikeLen < 0:
		return fmt.Errorf("scenario: negative spike window [%v, +%v)", s.SpikeStart, s.SpikeLen)
	case s.NightFloor < 0 || s.NightFloor > 1:
		return fmt.Errorf("scenario: night floor %g outside [0, 1]", s.NightFloor)
	case s.Alpha < 0:
		return fmt.Errorf("scenario: negative Pareto alpha %g", s.Alpha)
	case s.SessionMin < 0:
		return fmt.Errorf("scenario: negative session minimum %g", s.SessionMin)
	case s.HeavyFraction < 0 || s.HeavyFraction > 1:
		return fmt.Errorf("scenario: heavy fraction %g outside [0, 1]", s.HeavyFraction)
	case s.Batch < 0:
		return fmt.Errorf("scenario: negative batch size %d", s.Batch)
	case s.Period < 0 || s.Think < 0 || s.UpdatePeriod < 0:
		return fmt.Errorf("scenario: negative period %v, think time %v or update period %v", s.Period, s.Think, s.UpdatePeriod)
	case s.ReadFraction < 0 || s.ScanFraction < 0 || s.ReadFraction+s.ScanFraction > 1:
		return fmt.Errorf("scenario: kv fractions read=%g scan=%g must be nonnegative and sum to at most 1", s.ReadFraction, s.ScanFraction)
	}
	return nil
}

// Classes returns the class vocabulary a generator family emits, in
// stable order. DefaultClassMap maps every entry onto a RUBiS request
// type.
func (k Kind) Classes() []string {
	switch k {
	case FlashCrowd:
		return []string{"browse", "search", "view", "bid", "sell"}
	case Diurnal:
		return []string{"browse", "search", "view", "bid", "sell", "register"}
	case HeavyTail:
		return []string{"browse", "search", "view", "bid"}
	case MLServing:
		return []string{"infer-light", "infer-heavy", "model-update"}
	case KVTier:
		return []string{"kv-get", "kv-scan", "kv-set"}
	default:
		return nil
	}
}

// DefaultClassMap maps every generator class onto the RUBiS request type
// whose tier profile best matches its cost shape (the values are
// rubis.RequestType names; rubis.ResolveTrace also accepts the sixteen
// RUBiS names directly, so recorded RUBiS traces replay unmapped).
func DefaultClassMap() map[string]string {
	return map[string]string{
		"browse":   "Browse",
		"search":   "SearchItemsInCategory",
		"view":     "ViewItem",
		"bid":      "PutBid",
		"sell":     "Sell",
		"register": "Register",

		// Inference requests are read-shaped (no durable writes); the
		// heavy class lands on the most app/db-expensive read profile,
		// model updates on the heaviest write profile.
		"infer-light":  "SellItemForm",
		"infer-heavy":  "ViewItem",
		"model-update": "PutComment",

		// The KV tier is dominated by cheap reads; scans fan out like a
		// category search and sets take the short write path.
		"kv-get":  "SellItemForm",
		"kv-scan": "SearchItemsInCategory",
		"kv-set":  "BuyNow",
	}
}

// GenMeta is the provenance record a generator embeds in the trace
// header — the spec echo plus the emitted totals the conformance suite
// checks conservation against.
type GenMeta struct {
	Kind       string  `json:"kind"`
	Rate       float64 `json:"rate"`
	DurationNs int64   `json:"duration_ns"`
	Seed       int64   `json:"seed"`
	Reqs       int     `json:"reqs"`
	Sessions   int     `json:"sessions"`
}

// ParseGenMeta decodes a generated trace's meta blob; ok is false for
// traces without one (recordings, hand-built traces).
func ParseGenMeta(meta []byte) (GenMeta, bool) {
	var m GenMeta
	if len(meta) == 0 || json.Unmarshal(meta, &m) != nil || m.Kind == "" {
		return GenMeta{}, false
	}
	return m, true
}

// Generate synthesizes a trace from the spec. The result is a pure
// function of the spec: equal specs (and seeds) produce byte-identical
// encodings. All randomness flows through sim.Rand substreams forked
// from the spec seed.
func Generate(spec GenSpec) (*Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.applyDefaults()
	root := sim.NewRand(spec.Seed)
	arrivals := root.Fork()
	classes := root.Fork()
	sessions := root.Fork()
	sizes := root.Fork()

	var reqs []Req
	switch spec.Kind {
	case FlashCrowd:
		reqs = genFlashCrowd(spec, arrivals, classes, sessions)
	case Diurnal:
		reqs = genDiurnal(spec, arrivals, classes, sessions)
	case HeavyTail:
		reqs = genHeavyTail(spec, arrivals, classes, sessions)
	case MLServing:
		reqs = genMLServing(spec, arrivals, classes, sizes)
	case KVTier:
		reqs = genKVTier(spec, arrivals, classes, sessions, sizes)
	}

	tr := &Trace{Version: Version, Seed: spec.Seed, Reqs: reqs}
	meta := GenMeta{
		Kind:       string(spec.Kind),
		Rate:       spec.Rate,
		DurationNs: int64(spec.Duration),
		Seed:       spec.Seed,
		Reqs:       len(reqs),
		Sessions:   tr.Info().Sessions,
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding generator meta: %w", err)
	}
	tr.Meta = blob
	return tr, nil
}

// poissonArrivals draws a (possibly nonhomogeneous) Poisson arrival
// process on [0, dur) by thinning against the peak rate: candidate
// arrivals come at exponential interarrivals of 1/peak and survive with
// probability lambda(t)/peak.
func poissonArrivals(rng *sim.Rand, dur sim.Time, peak float64, lambda func(t sim.Time) float64) []sim.Time {
	if peak <= 0 {
		return nil
	}
	var out []sim.Time
	mean := sim.Time(float64(sim.Second) / peak)
	for t := rng.ExpTime(mean); t < dur; t += rng.ExpTime(mean) {
		if rng.Float64()*peak < lambda(t) {
			out = append(out, t)
		}
	}
	return out
}

// sessionPool models session churn for open-loop generators: most
// arrivals continue a recently active session, a fraction open a new one.
// The pool is bounded so session ids keep cycling instead of pinning the
// whole trace onto the first few.
type sessionPool struct {
	rng    *sim.Rand
	pNew   float64
	cap    int
	next   int64
	active []int64
}

func newSessionPool(rng *sim.Rand, pNew float64, capacity int) *sessionPool {
	return &sessionPool{rng: rng, pNew: pNew, cap: capacity}
}

func (p *sessionPool) pick() int64 {
	if len(p.active) == 0 || p.rng.Bool(p.pNew) {
		id := p.next
		p.next++
		p.active = append(p.active, id)
		if len(p.active) > p.cap {
			p.active = p.active[1:]
		}
		return id
	}
	return p.active[p.rng.Intn(len(p.active))]
}

func genFlashCrowd(spec GenSpec, arrivals, classes, sessions *sim.Rand) []Req {
	spikeEnd := spec.SpikeStart + spec.SpikeLen
	inSpike := func(t sim.Time) bool { return t >= spec.SpikeStart && t < spikeEnd }
	peak := spec.Rate * math.Max(1, spec.SpikeFactor)
	times := poissonArrivals(arrivals, spec.Duration, peak, func(t sim.Time) float64 {
		if inSpike(t) {
			return spec.Rate * spec.SpikeFactor
		}
		return spec.Rate
	})
	pool := newSessionPool(sessions, 0.15, 64)
	names := FlashCrowd.Classes() // browse, search, view, bid, sell
	calm := []float64{4, 2, 2, 0.5, 0.25}
	// The crowd converges on one hot item: views and bids dominate.
	hot := []float64{1, 0.5, 5, 3, 0.1}
	reqs := make([]Req, 0, len(times))
	for _, t := range times {
		w := calm
		if inSpike(t) {
			w = hot
		}
		reqs = append(reqs, Req{T: t, Class: names[classes.Choice(w)], Session: pool.pick()})
	}
	return reqs
}

func genDiurnal(spec GenSpec, arrivals, classes, sessions *sim.Rand) []Req {
	day := float64(spec.Period)
	lambda := func(t sim.Time) float64 {
		phase := 0.5 * (1 - math.Cos(2*math.Pi*float64(t)/day))
		return spec.Rate * (spec.NightFloor + (1-spec.NightFloor)*phase)
	}
	times := poissonArrivals(arrivals, spec.Duration, spec.Rate, lambda)
	pool := newSessionPool(sessions, 0.2, 128)
	names := Diurnal.Classes() // browse, search, view, bid, sell, register
	weights := []float64{3, 2, 2, 1, 0.3, 0.1}
	reqs := make([]Req, 0, len(times))
	for _, t := range times {
		reqs = append(reqs, Req{T: t, Class: names[classes.Choice(weights)], Session: pool.pick()})
	}
	return reqs
}

// meanSessionLen is the heavy-tail mean session length in requests. The
// mean of a Pareto(min, alpha) is alpha*min/(alpha-1) for alpha > 1; at
// or below 1 it diverges, so a pragmatic 4x-min stand-in pins the session
// arrival rate instead.
func (s GenSpec) meanSessionLen() float64 {
	if s.Alpha > 1 {
		return s.Alpha * s.SessionMin / (s.Alpha - 1)
	}
	return s.SessionMin * 4
}

// Draws estimates how many arrivals Generate draws for the spec —
// requests, session starts and model updates — which is what generating
// the trace costs in memory. It is an upper estimate: the flash-crowd
// spike counts at its peak rate for the whole span.
func (s GenSpec) Draws() float64 {
	s.applyDefaults()
	sec := s.Duration.Seconds()
	switch s.Kind {
	case FlashCrowd:
		return s.Rate * math.Max(1, s.SpikeFactor) * sec
	case HeavyTail:
		// Sessions shorter than one request on average outnumber the
		// requests they carry.
		return s.Rate * sec * math.Max(1, 1/s.meanSessionLen())
	case MLServing:
		return s.Rate*sec + sec/s.UpdatePeriod.Seconds()
	case Diurnal, KVTier:
		// Arrivals at (at most) the mean rate.
	}
	return s.Rate * sec
}

func genHeavyTail(spec GenSpec, arrivals, classes, sessions *sim.Rand) []Req {
	sessionRate := spec.Rate / spec.meanSessionLen()
	starts := poissonArrivals(arrivals, spec.Duration, sessionRate, func(sim.Time) float64 { return sessionRate })
	names := HeavyTail.Classes() // browse, search, view, bid
	weights := []float64{3, 1.5, 2, 1}
	var reqs []Req
	for id, t0 := range starts {
		// Cap the tail so one 10^4-request session cannot dwarf the trace.
		length := int(sessions.Pareto(spec.SessionMin, spec.Alpha))
		if length > 2000 {
			length = 2000
		}
		t := t0
		for i := 0; i < length && t < spec.Duration; i++ {
			reqs = append(reqs, Req{T: t, Class: names[classes.Choice(weights)], Session: int64(id)})
			t += sessions.ExpTime(spec.Think)
		}
	}
	// Sessions overlap, so the per-session streams are merged into one
	// nondecreasing arrival order; the (T, Session) sort is total for
	// distinct sessions and stable within one, so the result is
	// deterministic.
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].T != reqs[j].T {
			return reqs[i].T < reqs[j].T
		}
		return reqs[i].Session < reqs[j].Session
	})
	return reqs
}

func genMLServing(spec GenSpec, arrivals, classes, sizes *sim.Rand) []Req {
	batchRate := spec.Rate / float64(spec.Batch)
	starts := poissonArrivals(arrivals, spec.Duration, batchRate, func(sim.Time) float64 { return batchRate })
	var reqs []Req
	session := int64(0)
	for _, t := range starts {
		// One batch = one session: requests that arrived together on the
		// accelerator queue.
		for i := 0; i < spec.Batch; i++ {
			class, size := "infer-light", int64(256+sizes.Intn(256))
			if classes.Bool(spec.HeavyFraction) {
				class, size = "infer-heavy", int64(2048+sizes.Intn(2048))
			}
			reqs = append(reqs, Req{T: t, Class: class, Session: session, Size: size})
		}
		session++
	}
	// Model updates arrive on a fixed cadence, each its own session.
	for t := spec.UpdatePeriod; t < spec.Duration; t += spec.UpdatePeriod {
		reqs = append(reqs, Req{T: t, Class: "model-update", Session: session, Size: 64 << 10})
		session++
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].T != reqs[j].T {
			return reqs[i].T < reqs[j].T
		}
		return reqs[i].Session < reqs[j].Session
	})
	return reqs
}

func genKVTier(spec GenSpec, arrivals, classes, sessions, sizes *sim.Rand) []Req {
	times := poissonArrivals(arrivals, spec.Duration, spec.Rate, func(sim.Time) float64 { return spec.Rate })
	const connections = 16 // fixed client connection pool
	reqs := make([]Req, 0, len(times))
	for _, t := range times {
		r := Req{T: t, Session: int64(sessions.Intn(connections))}
		switch u := classes.Float64(); {
		case u < spec.ReadFraction:
			r.Class, r.Size = "kv-get", 64
		case u < spec.ReadFraction+spec.ScanFraction:
			r.Class, r.Size = "kv-scan", 96
		default:
			r.Class = "kv-set"
			if v := int64(128 + sizes.Pareto(64, 1.3)); v < 16<<10 {
				r.Size = v
			} else {
				r.Size = 16 << 10
			}
		}
		reqs = append(reqs, r)
	}
	return reqs
}
