package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/overload"
	"repro/internal/rubis"
	"repro/internal/scenario"
)

// Workload selects what drives a RUBiS run. The zero value (and Kind
// "sessions") keeps the calibrated closed-loop client; Kind "trace"
// replays a recorded .wtrace file; any generator kind (see
// WorkloadKinds) synthesizes a deterministic trace from the knobs below
// and replays it open loop. Traces are a pure function of the spec and
// seed, so trace-driven runs record/replay and sweep byte-identically
// like every other experiment.
type Workload struct {
	// Kind is "", "sessions", "trace", or a generator family:
	// "flash-crowd", "diurnal", "heavy-tail", "ml-serving", "kv-tier".
	Kind string `json:"kind,omitempty"`

	// Closed-loop knobs (Kind "" or "sessions"); zero keeps the
	// RubisConfig Sessions/Mix values.
	Sessions int    `json:"sessions,omitempty"`
	Mix      string `json:"mix,omitempty"`

	// Path is the .wtrace file to replay (Kind "trace").
	Path string `json:"path,omitempty"`

	// Generator knobs. Rate is the mean arrival rate in requests/second;
	// Seed pins the trace independently of the run seed (0 = the run
	// seed). The remaining knobs default per family exactly as
	// documented in docs/scenarios.md; zero takes the default.
	Rate float64 `json:"rate,omitempty"`
	Seed int64   `json:"seed,omitempty"`

	SpikeStart  time.Duration `json:"spike_start,omitempty"`
	SpikeLen    time.Duration `json:"spike_len,omitempty"`
	SpikeFactor float64       `json:"spike_factor,omitempty"`

	Period     time.Duration `json:"period,omitempty"`
	NightFloor float64       `json:"night_floor,omitempty"`

	Alpha      float64       `json:"alpha,omitempty"`
	SessionMin float64       `json:"session_min,omitempty"`
	Think      time.Duration `json:"think,omitempty"`

	HeavyFraction float64       `json:"heavy_fraction,omitempty"`
	Batch         int           `json:"batch,omitempty"`
	UpdatePeriod  time.Duration `json:"update_period,omitempty"`

	ReadFraction float64 `json:"read_fraction,omitempty"`
	ScanFraction float64 `json:"scan_fraction,omitempty"`

	// ClassMap overrides how trace request classes resolve to RUBiS
	// request types (defaults: scenario.DefaultClassMap, then direct
	// RUBiS type names).
	ClassMap map[string]string `json:"class_map,omitempty"`
}

// WorkloadKinds returns every accepted Workload.Kind in catalog order.
func WorkloadKinds() []string {
	kinds := []string{"sessions", "trace"}
	for _, k := range scenario.Kinds() {
		kinds = append(kinds, string(k))
	}
	return kinds
}

// closedLoop reports whether the workload keeps the closed-loop client.
func (w *Workload) closedLoop() bool {
	return w == nil || w.Kind == "" || w.Kind == "sessions"
}

// genSpec compiles the generator knobs for a run of the given shape.
func (w *Workload) genSpec(seed int64, duration time.Duration) scenario.GenSpec {
	if duration <= 0 {
		duration = 70 * time.Second // the experiment's calibrated default
	}
	if w.Seed != 0 {
		seed = w.Seed
	}
	return scenario.GenSpec{
		Kind:          scenario.Kind(w.Kind),
		Duration:      toSim(duration),
		Rate:          w.Rate,
		Seed:          seed,
		SpikeStart:    toSim(w.SpikeStart),
		SpikeLen:      toSim(w.SpikeLen),
		SpikeFactor:   w.SpikeFactor,
		Period:        toSim(w.Period),
		NightFloor:    w.NightFloor,
		Alpha:         w.Alpha,
		SessionMin:    w.SessionMin,
		Think:         toSim(w.Think),
		HeavyFraction: w.HeavyFraction,
		Batch:         w.Batch,
		UpdatePeriod:  toSim(w.UpdatePeriod),
		ReadFraction:  w.ReadFraction,
		ScanFraction:  w.ScanFraction,
	}
}

// Validate reports the first configuration error in the workload spec.
// Trace files and class resolution are checked at compile time (they
// need the run shape); see Scenario.Validate / RubisConfig.Workload.
func (w *Workload) Validate() error {
	if w == nil {
		return nil
	}
	if w.closedLoop() {
		if w.Sessions < 0 {
			return fmt.Errorf("repro: workload has negative session count %d", w.Sessions)
		}
		if w.Mix != "" && w.Mix != "bid" && w.Mix != "browsing" {
			return fmt.Errorf("repro: unknown workload mix %q (want \"bid\" or \"browsing\")", w.Mix)
		}
		if w.Path != "" {
			return fmt.Errorf("repro: workload kind %q does not take a trace path", w.Kind)
		}
		return nil
	}
	if w.Kind == "trace" {
		if w.Path == "" {
			return fmt.Errorf("repro: workload kind \"trace\" requires a path")
		}
		return nil
	}
	spec := w.genSpec(1, time.Second)
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("repro: workload: %w", err)
	}
	if w.Batch > maxScenarioBatch {
		return fmt.Errorf("repro: workload batch size %d over the cap of %d", w.Batch, maxScenarioBatch)
	}
	return nil
}

// trace materializes the workload's trace: read from disk for Kind
// "trace", generated otherwise. Pure function of the spec, the run seed,
// and the run duration.
func (w *Workload) trace(seed int64, duration time.Duration) (*scenario.Trace, error) {
	if w.Kind == "trace" {
		tr, err := scenario.ReadFile(w.Path)
		if err == nil && len(tr.Reqs) > maxScenarioRequests {
			return nil, fmt.Errorf("repro: trace %s holds %d requests, over the cap of %d",
				w.Path, len(tr.Reqs), maxScenarioRequests)
		}
		return tr, err
	}
	return scenario.Generate(w.genSpec(seed, duration))
}

// driver compiles the workload into the trace-driven client's input for
// a run of the given shape, or nil for closed-loop workloads. LoadFactor
// compresses arrival times (the open-loop analogue of scaling the
// session population).
func (w *Workload) driver(cfg RubisConfig) (*rubis.TraceDriver, error) {
	if w.closedLoop() {
		return nil, nil
	}
	tr, err := w.trace(cfg.Seed, cfg.Duration)
	if err != nil {
		return nil, err
	}
	reqs, err := rubis.ResolveTrace(tr, w.ClassMap)
	if err != nil {
		return nil, err
	}
	rubis.ScaleTraceTimes(reqs, cfg.LoadFactor)
	d := &rubis.TraceDriver{Reqs: reqs}
	if cfg.RequestTimeout > 0 {
		d.Timeout = toSim(cfg.RequestTimeout)
	}
	return d, nil
}

// Scenario is the declarative description of one complete experiment: a
// workload (closed-loop, generated, or recorded trace), the coordination
// plane to run it on, and the fault, overload, and failover machinery to
// arm. A scenario is plain data — it marshals to JSON (see ParseScenario
// and `reproscn`), validates with diagnosable errors, and compiles to a
// RubisConfig; runs are deterministic in (spec, seed).
type Scenario struct {
	Name string `json:"name,omitempty"`
	Seed int64  `json:"seed,omitempty"`

	Duration time.Duration `json:"duration,omitempty"`
	Warmup   time.Duration `json:"warmup,omitempty"`

	// Coordinated selects the coordinated plane for RunScenario; the
	// scenario matrix runs both planes regardless of this field.
	Coordinated  bool          `json:"coordinated,omitempty"`
	Scheme       CoordScheme   `json:"scheme,omitempty"`
	CoordLatency time.Duration `json:"coord_latency,omitempty"`

	LoadFactor     float64       `json:"load_factor,omitempty"`
	RequestTimeout time.Duration `json:"request_timeout,omitempty"`

	Robust   bool             `json:"robust,omitempty"`
	Workload *Workload        `json:"workload,omitempty"`
	Faults   *FaultPlan       `json:"faults,omitempty"`
	Overload *OverloadControl `json:"overload,omitempty"`
	Failover *FailoverControl `json:"failover,omitempty"`
	Energy   *EnergyControl   `json:"energy,omitempty"`
}

// Size caps on a valid scenario. A run's memory grows with its session
// population, the requests its generator draws, its controller replicas
// and its batch size; the caps keep every accepted spec affordable, so
// the parser can be fuzzed for any budget. Each sits orders of magnitude
// above the calibrated experiments (80 sessions x load 3, 40 req/s x 70 s,
// 3 replicas, batches of 4).
const (
	maxScenarioSessions = 10_000    // closed-loop sessions x LoadFactor
	maxScenarioRequests = 1_000_000 // generator draws (scenario.GenSpec.Draws) or recorded trace requests
	maxScenarioReplicas = 16        // controller replicas, primary included
	maxScenarioBatch    = 1024      // ml-serving requests per arrival batch
)

// Validate reports the first configuration error in the scenario:
// unknown workload kinds, negative rates or loads, malformed fault
// plans, overlapping fault windows, unparsable shed policies, and specs
// over the size caps are all diagnosable errors here rather than panics
// (or exhausted memory) at run time.
func (s Scenario) Validate() error {
	if s.Duration < 0 {
		return fmt.Errorf("repro: scenario %q has negative duration %v", s.Name, s.Duration)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("repro: scenario %q has negative warmup %v", s.Name, s.Warmup)
	}
	if s.Duration > 0 && s.Warmup >= s.Duration {
		return fmt.Errorf("repro: scenario %q warmup %v leaves no measurement window in %v", s.Name, s.Warmup, s.Duration)
	}
	if s.LoadFactor < 0 {
		return fmt.Errorf("repro: scenario %q has negative load factor %g", s.Name, s.LoadFactor)
	}
	if err := s.config().Validate(); err != nil {
		return err
	}
	if err := s.validateSize(); err != nil {
		return err
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
		if err := validateFaultWindows(s.Faults); err != nil {
			return fmt.Errorf("repro: scenario %q: %w", s.Name, err)
		}
	}
	if s.Overload != nil {
		if _, err := overload.ParsePolicy(s.Overload.Policy); err != nil {
			return fmt.Errorf("repro: scenario %q: %w", s.Name, err)
		}
	}
	if s.Failover != nil && s.Failover.Replicas < 0 {
		return fmt.Errorf("repro: scenario %q has negative replica count %d", s.Name, s.Failover.Replicas)
	}
	if s.Failover != nil && s.Failover.Replicas > maxScenarioReplicas {
		return fmt.Errorf("repro: scenario %q asks for %d controller replicas, over the cap of %d",
			s.Name, s.Failover.Replicas, maxScenarioReplicas)
	}
	if s.Energy != nil {
		if _, err := s.Energy.internal(); err != nil {
			return fmt.Errorf("repro: scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// validateSize applies the session and request caps to a validated
// workload: closed-loop sessions scaled by LoadFactor, or the arrivals a
// generator draws over the run's duration.
func (s Scenario) validateSize() error {
	w := s.Workload
	if w.closedLoop() {
		sessions := float64(rubis.DefaultExperimentClient().Sessions)
		if w != nil && w.Sessions > 0 {
			sessions = float64(w.Sessions)
		}
		if s.LoadFactor > 0 {
			sessions *= s.LoadFactor
		}
		if sessions > maxScenarioSessions {
			return fmt.Errorf("repro: scenario %q runs %.0f closed-loop sessions (sessions x load factor), over the cap of %d",
				s.Name, sessions, maxScenarioSessions)
		}
		return nil
	}
	if w.Kind == "trace" {
		return nil // the recorded request count is checked when Compile reads the file
	}
	spec := w.genSpec(s.Seed, s.Duration)
	if n := spec.Draws(); n > maxScenarioRequests {
		return fmt.Errorf("repro: scenario %q: %s workload draws about %.0f arrivals over %v, over the cap of %d",
			s.Name, w.Kind, n, spec.Duration, maxScenarioRequests)
	}
	return nil
}

// validateFaultWindows rejects overlapping windows that the pcie layer
// would silently compose: two crash windows on one island, two replica
// windows on one replica, or two partition/corruption windows sharing a
// channel. The overlap rules live on the pcie plan (shared with the chaos
// search generator) so the DSL and the generator can never disagree.
func validateFaultWindows(p *FaultPlan) error {
	return p.internal().ValidateDisjoint()
}

// Compile validates the scenario and lowers it to a runnable RubisConfig,
// pre-flighting the workload trace (file reads, class resolution) so
// every failure surfaces here as an error rather than later as a panic.
func (s Scenario) Compile() (RubisConfig, error) {
	if err := s.Validate(); err != nil {
		return RubisConfig{}, err
	}
	cfg := s.config()
	if s.Workload != nil {
		if _, err := s.Workload.driver(cfg); err != nil {
			return RubisConfig{}, err
		}
	}
	return cfg, nil
}

// config lowers the scenario to a RubisConfig by field copy alone: no
// validation and no trace pre-flight.
func (s Scenario) config() RubisConfig {
	cfg := RubisConfig{
		Seed:           s.Seed,
		Duration:       s.Duration,
		Warmup:         s.Warmup,
		Scheme:         s.Scheme,
		CoordLatency:   s.CoordLatency,
		LoadFactor:     s.LoadFactor,
		RequestTimeout: s.RequestTimeout,
		Robust:         s.Robust,
		Workload:       s.Workload,
		Faults:         s.Faults,
		Overload:       s.Overload,
		Failover:       s.Failover,
		Energy:         s.Energy,
	}
	if s.Workload != nil && s.Workload.closedLoop() {
		cfg.Sessions = s.Workload.Sessions
		cfg.Mix = s.Workload.Mix
	}
	return cfg
}

// RunScenario compiles and runs one scenario on the plane its
// Coordinated field selects. The run is a pure function of the scenario.
func RunScenario(s Scenario) (*RubisRun, error) {
	cfg, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return RunRubis(cfg, s.Coordinated), nil
}

// ParseScenario decodes a JSON scenario spec strictly: unknown fields
// are errors (a typoed knob must not silently become a default), and the
// decoded spec must validate.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("repro: parse scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// scenarioMatrixVersion invalidates cached scenario-matrix trials when
// the experiment's meaning changes.
const scenarioMatrixVersion = "scenario-matrix-v2"

// ScenarioCatalog returns the canonical trace-driven scenario matrix for
// a run of the given duration: one scenario per generator family, each
// composed with the fault, overload, or energy machinery its workload
// shape stresses. The same catalog drives `reprobench -exp ablation-scenarios`,
// the parallel-determinism test, and the pinned bench sweep.
func ScenarioCatalog(dur time.Duration) []Scenario {
	warm := dur / 4
	stress := overloadStressKnobs()
	return []Scenario{
		{
			// The canonical overload trigger: an 8x arrival spike into
			// bounded tier queues.
			Name: "flash-crowd+overload", Duration: dur, Warmup: warm,
			Workload:       &Workload{Kind: "flash-crowd", Rate: 40},
			RequestTimeout: overloadStressTimeout,
			Overload:       &stress,
		},
		{
			// A clean day/night curve: the baseline the others compare to.
			Name: "diurnal", Duration: dur, Warmup: warm,
			Workload: &Workload{Kind: "diurnal", Rate: 30},
		},
		{
			// Pareto session lengths with the coordination link partitioned
			// mid-run; the reliable plane must ride it out.
			Name: "heavy-tail+partition", Duration: dur, Warmup: warm,
			Workload: &Workload{Kind: "heavy-tail", Rate: 25},
			Faults:   &FaultPlan{Partitions: []Partition{{Start: dur / 4, Duration: dur / 4}}},
			Robust:   true,
		},
		{
			// Batched inference arrivals against the overload plane.
			Name: "ml-serving+overload", Duration: dur, Warmup: warm,
			Workload:       &Workload{Kind: "ml-serving", Rate: 50},
			RequestTimeout: overloadStressTimeout,
			Overload:       &stress,
		},
		{
			// The day/night curve again, with the coordinated energy governor
			// converting night-time QoS slack into DVFS downshifts.
			Name: "diurnal+energy", Duration: dur, Warmup: warm,
			Workload: &Workload{Kind: "diurnal", Rate: 30},
			Energy:   &EnergyControl{Governor: EnergyGovCoordinated},
		},
		{
			// A high-rate key-value stream while the IXP crashes and rejoins.
			Name: "kv-tier+crash", Duration: dur, Warmup: warm,
			Workload: &Workload{Kind: "kv-tier", Rate: 60},
			Faults:   &FaultPlan{Crashes: []CrashWindow{{Island: "ixp", Start: dur / 4, Duration: dur / 8}}},
			Robust:   true,
		},
	}
}

// ScenarioRow is one trial of the scenario matrix: one catalog scenario
// run on one coordination plane.
type ScenarioRow struct {
	Scenario string `json:"scenario"`
	// Plane is "base" (uncoordinated) or "coord" (coordinated; overload
	// scenarios also close the cross-island shed loop).
	Plane    string `json:"plane"`
	Workload string `json:"workload"`

	Throughput float64 `json:"throughput"`
	MeanMs     float64 `json:"mean_ms"`
	Sessions   int     `json:"sessions"`

	Shed        uint64 `json:"shed,omitempty"`
	Abandoned   uint64 `json:"abandoned,omitempty"`
	Retransmits uint64 `json:"retransmits,omitempty"`

	// Joules is the platform energy over the measurement interval; zero
	// unless the scenario arms the energy subsystem.
	Joules float64 `json:"joules,omitempty"`
}

// ScenarioMatrix returns the trace-driven scenario matrix: every
// ScenarioCatalog entry on the base and the coordinated plane
// ("diurnal/coord"), in stable order. cfg supplies the run shape
// (Duration; per-scenario warmup is derived) and the base seed; each
// trial re-derives its trace from the trial seed, so the matrix is
// byte-identical for any Workers value.
func ScenarioMatrix(cfg RubisConfig) Matrix[ScenarioRow] {
	return Matrix[ScenarioRow]{Version: scenarioMatrixVersion, Points: ScenarioMatrixPoints(cfg), Project: func(p MatrixPoint, r *RubisRun) ScenarioRow {
		scenario, plane := p.labels()
		ov := r.Overload
		return ScenarioRow{
			Scenario:    scenario,
			Plane:       plane,
			Workload:    p.Config.Workload.Kind,
			Throughput:  r.Throughput,
			MeanMs:      r.MeanOverTypes(),
			Sessions:    r.SessionsCompleted,
			Shed:        ov.QueueShed + ov.Expired + ov.IXPShed,
			Abandoned:   ov.Abandoned,
			Retransmits: r.Robustness.Retransmits,
			Joules:      r.Energy.PlatformJoules,
		}
	}}
}

// ScenarioMatrixPoints lowers the scenario catalog into the matrix's
// points. Expansion does no trace pre-flight, so it stays cheap; the
// catalog test pins that every entry compiles.
func ScenarioMatrixPoints(cfg RubisConfig) []MatrixPoint {
	var points []MatrixPoint
	for _, sc := range ScenarioCatalog(cfg.Duration) {
		for _, plane := range []string{"base", "coord"} {
			c := sc.config()
			c.Seed = cfg.Seed
			if c.Overload != nil {
				// Copied per point: catalog entries share one knob set, and
				// the plane decides whether the shed loop closes.
				ov := *c.Overload
				ov.Coordinated = plane == "coord"
				c.Overload = &ov
			}
			points = append(points, MatrixPoint{Name: sc.Name + "/" + plane, Config: c, Coordinated: plane == "coord"})
		}
	}
	return points
}

// ScenarioMatrixResult is one parallel run of the scenario matrix.
type ScenarioMatrixResult = MatrixResult[ScenarioRow]

// RunScenarioMatrix runs ScenarioMatrix(cfg) through RunMatrix.
func RunScenarioMatrix(cfg RubisConfig, opt SweepOptions) (*ScenarioMatrixResult, error) {
	return RunMatrix(ScenarioMatrix(cfg), opt)
}
