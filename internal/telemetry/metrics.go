package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default histogram bucket bounds.  Interval widths are metres (position)
// and seconds (windows); planner latency is nanoseconds.
var (
	// DefaultWidthBounds buckets estimate/window widths: sub-metre
	// precision at the tight end, coarse at the reachability-blowup end.
	DefaultWidthBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64}
	// DefaultLatencyBounds buckets planner decision latency [ns]:
	// 1 µs … 10 ms.
	DefaultLatencyBounds = []float64{1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 1e7}
)

// knownReasons indexes the fixed monitor-decision counters; anything else
// lands in reasonOther (future-proofing for scenario-specific reasons).
var knownReasons = []string{ReasonPlanner, ReasonBoundary, ReasonUnsafe, ReasonHold, ReasonInfeasible}

const reasonOther = "other"

// knownGuardFaults and knownGuardFallbacks index the fixed guard-event
// counters, mirroring knownReasons; unknown strings land in the trailing
// "other" slot.
var (
	knownGuardFaults    = []string{GuardFaultPanic, GuardFaultDeadline, GuardFaultWallClock, GuardFaultNonFinite, GuardFaultRange}
	knownGuardFallbacks = []string{GuardFallbackLastGood, GuardFallbackEmergency}
)

// maxGuardTransitions bounds the retained degradation-transition log; a
// pathological flaky campaign must not grow the collector without bound.
const maxGuardTransitions = 256

// GuardTransition is one retained degradation-state transition.
type GuardTransition struct {
	T    float64 `json:"t"`
	From string  `json:"from"`
	To   string  `json:"to"`
}

// Metrics is the standard Collector: atomic counters and fixed-bucket
// histograms, safe to share across every worker of a parallel campaign.
// The zero value is not usable; call NewMetrics.
type Metrics struct {
	steps     atomic.Int64
	emergency atomic.Int64

	episodes  atomic.Int64
	reached   atomic.Int64
	collided  atomic.Int64
	timeouts  atomic.Int64
	fusedMiss atomic.Int64
	soundViol atomic.Int64
	// etaSum holds 2^17 = 131,072 episodes (a paper-scale campaign has
	// 80,000) of |η| ≤ 64 at a quantum of 2^-40 ≈ 9.1e-13.
	etaSum fixedSum

	reasons [6]atomic.Int64 // knownReasons order, then reasonOther

	guardEvents    atomic.Int64
	guardFaults    [6]atomic.Int64 // knownGuardFaults order, then other
	guardFallbacks [3]atomic.Int64 // knownGuardFallbacks order, then other

	transMu     sync.Mutex
	transitions []GuardTransition
	transTotal  int64

	soundWidth *Histogram
	fusedWidth *Histogram
	consWidth  *Histogram
	aggrWidth  *Histogram
	latency    *Histogram

	done, total atomic.Int64
}

// NewMetrics returns an empty Metrics collector with the default bucket
// layout.
func NewMetrics() *Metrics {
	m := &Metrics{
		soundWidth: NewHistogram(DefaultWidthBounds...),
		fusedWidth: NewHistogram(DefaultWidthBounds...),
		consWidth:  NewHistogram(DefaultWidthBounds...),
		aggrWidth:  NewHistogram(DefaultWidthBounds...),
		latency:    NewHistogram(DefaultLatencyBounds...),
	}
	m.etaSum.init(64, 17)
	return m
}

// OnStep implements Collector.
func (m *Metrics) OnStep(p StepProbe) {
	m.steps.Add(1)
	if p.Emergency {
		m.emergency.Add(1)
	}
	m.soundWidth.Observe(p.SoundWidth)
	m.fusedWidth.Observe(p.FusedWidth)
	m.consWidth.Observe(p.ConsWidth)
	m.aggrWidth.Observe(p.AggrWidth)
	if p.PlannerNs > 0 {
		m.latency.Observe(float64(p.PlannerNs))
	}
}

// OnMonitorDecision implements Collector.
func (m *Metrics) OnMonitorDecision(reason string) {
	countByName(m.reasons[:], knownReasons, reason)
}

// OnGuardEvent implements Collector.
func (m *Metrics) OnGuardEvent(e GuardEvent) {
	m.guardEvents.Add(1)
	if e.Fault != "" {
		countByName(m.guardFaults[:], knownGuardFaults, e.Fault)
	}
	if e.Fallback != "" {
		countByName(m.guardFallbacks[:], knownGuardFallbacks, e.Fallback)
	}
	if e.Transition {
		tr := GuardTransition{T: e.T, From: e.From, To: e.State}
		m.transMu.Lock()
		m.transTotal++
		if len(m.transitions) < maxGuardTransitions {
			m.transitions = append(m.transitions, tr)
		} else if last := latestTransition(m.transitions); tr.before(m.transitions[last]) {
			m.transitions[last] = tr
		}
		m.transMu.Unlock()
	}
}

// before orders transitions by episode time, then by states, so the
// retained log does not depend on the order workers report in.
func (a GuardTransition) before(b GuardTransition) bool {
	if a.T != b.T {
		return a.T < b.T
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// latestTransition is the index of the last transition of log in the
// before order.
func latestTransition(log []GuardTransition) int {
	last := 0
	for i := range log {
		if log[last].before(log[i]) {
			last = i
		}
	}
	return last
}

// countByName bumps the counter matching name, or the trailing "other"
// slot.  Counters are plain wrapping int64s: a campaign long enough to
// overflow one (≈9.2·10¹⁸ events) wraps silently like every other Go
// counter, which the overflow test pins down.
func countByName(counters []atomic.Int64, names []string, name string) {
	for i, n := range names {
		if name == n {
			counters[i].Add(1)
			return
		}
	}
	counters[len(names)].Add(1)
}

// OnEpisode implements Collector.
func (m *Metrics) OnEpisode(o EpisodeOutcome) {
	m.episodes.Add(1)
	switch {
	case o.Collided:
		m.collided.Add(1)
	case o.Reached:
		m.reached.Add(1)
	default:
		m.timeouts.Add(1)
	}
	m.fusedMiss.Add(int64(o.FusedIntervalMisses))
	m.soundViol.Add(int64(o.SoundViolations))
	m.etaSum.Add(o.Eta)
}

// OnProgress implements Collector.
// Workers report out of order, so the highest count wins.
func (m *Metrics) OnProgress(done, total int64) {
	for {
		old := m.done.Load()
		if done <= old || m.done.CompareAndSwap(old, done) {
			break
		}
	}
	m.total.Store(total)
}

// Snapshot is a point-in-time copy of a Metrics collector, encodable as
// JSON and renderable as text.
type Snapshot struct {
	Episodes int64 `json:"episodes"`
	Reached  int64 `json:"reached"`
	Collided int64 `json:"collided"`
	Timeouts int64 `json:"timeouts"`

	MeanEta        float64 `json:"mean_eta"`
	Steps          int64   `json:"steps"`
	EmergencySteps int64   `json:"emergency_steps"`
	EmergencyRate  float64 `json:"emergency_rate"`

	// FusedIntervalMisses counts fused-interval misses (expected Kalman
	// sharpening error, not a safety defect).
	FusedIntervalMisses int64 `json:"fused_interval_misses"`
	// SoundViolations counts genuine soundness-contract violations; 0 in
	// every correct configuration.
	SoundViolations int64 `json:"sound_violations"`

	// MonitorReasons counts runtime-monitor selections by reason ("kn"
	// when the embedded planner kept control).  Empty for pure agents,
	// which bypass the monitor entirely.
	MonitorReasons map[string]int64 `json:"monitor_reasons,omitempty"`

	// GuardEvents counts planner-fault guard interventions; GuardFaults
	// and GuardFallbacks break them down by kind.  All empty when no
	// guard is active.
	GuardEvents    int64            `json:"guard_events,omitempty"`
	GuardFaults    map[string]int64 `json:"guard_faults,omitempty"`
	GuardFallbacks map[string]int64 `json:"guard_fallbacks,omitempty"`
	// GuardTransitions retains the maxGuardTransitions earliest
	// degradation-state transitions by episode time (then states), in
	// that order; GuardTransitionTotal is the true count (the log is
	// bounded, the counter is not).
	GuardTransitions     []GuardTransition `json:"guard_transitions,omitempty"`
	GuardTransitionTotal int64             `json:"guard_transition_total,omitempty"`

	SoundWidth     HistogramSnapshot `json:"sound_width_m"`
	FusedWidth     HistogramSnapshot `json:"fused_width_m"`
	ConsWidth      HistogramSnapshot `json:"cons_window_s"`
	AggrWidth      HistogramSnapshot `json:"aggr_window_s"`
	PlannerLatency HistogramSnapshot `json:"planner_latency_ns"`

	ProgressDone  int64 `json:"progress_done"`
	ProgressTotal int64 `json:"progress_total"`
}

// Snapshot copies the collector's current state.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Episodes:            m.episodes.Load(),
		Reached:             m.reached.Load(),
		Collided:            m.collided.Load(),
		Timeouts:            m.timeouts.Load(),
		Steps:               m.steps.Load(),
		EmergencySteps:      m.emergency.Load(),
		FusedIntervalMisses: m.fusedMiss.Load(),
		SoundViolations:     m.soundViol.Load(),
		SoundWidth:          m.soundWidth.Snapshot(),
		FusedWidth:          m.fusedWidth.Snapshot(),
		ConsWidth:           m.consWidth.Snapshot(),
		AggrWidth:           m.aggrWidth.Snapshot(),
		PlannerLatency:      m.latency.Snapshot(),
		ProgressDone:        m.done.Load(),
		ProgressTotal:       m.total.Load(),
	}
	if s.Episodes > 0 {
		s.MeanEta = m.etaSum.Load() / float64(s.Episodes)
	}
	if s.Steps > 0 {
		s.EmergencyRate = float64(s.EmergencySteps) / float64(s.Steps)
	}
	for i, r := range knownReasons {
		if n := m.reasons[i].Load(); n > 0 {
			if s.MonitorReasons == nil {
				s.MonitorReasons = make(map[string]int64)
			}
			s.MonitorReasons[r] = n
		}
	}
	if n := m.reasons[len(knownReasons)].Load(); n > 0 {
		if s.MonitorReasons == nil {
			s.MonitorReasons = make(map[string]int64)
		}
		s.MonitorReasons[reasonOther] = n
	}
	s.GuardEvents = m.guardEvents.Load()
	s.GuardFaults = snapshotByName(m.guardFaults[:], knownGuardFaults)
	s.GuardFallbacks = snapshotByName(m.guardFallbacks[:], knownGuardFallbacks)
	m.transMu.Lock()
	if len(m.transitions) > 0 {
		s.GuardTransitions = append([]GuardTransition(nil), m.transitions...)
		sort.Slice(s.GuardTransitions, func(i, j int) bool { return s.GuardTransitions[i].before(s.GuardTransitions[j]) })
	}
	s.GuardTransitionTotal = m.transTotal
	m.transMu.Unlock()
	return s
}

// snapshotByName copies the nonzero named counters (plus the trailing
// "other" slot) into a map, or nil when all are zero.
func snapshotByName(counters []atomic.Int64, names []string) map[string]int64 {
	var out map[string]int64
	add := func(name string, n int64) {
		if n == 0 {
			return
		}
		if out == nil {
			out = make(map[string]int64)
		}
		out[name] = n
	}
	for i, name := range names {
		add(name, counters[i].Load())
	}
	add("other", counters[len(names)].Load())
	return out
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// WriteText renders a human-readable metrics dump.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "episodes:        %d (reached %d, collided %d, timeout %d)\n",
		s.Episodes, s.Reached, s.Collided, s.Timeouts)
	fmt.Fprintf(&b, "mean eta:        %.4f\n", s.MeanEta)
	fmt.Fprintf(&b, "steps:           %d, emergency %d (%.2f%%)\n",
		s.Steps, s.EmergencySteps, 100*s.EmergencyRate)
	fmt.Fprintf(&b, "fused misses:    %d\n", s.FusedIntervalMisses)
	fmt.Fprintf(&b, "sound viol.:     %d\n", s.SoundViolations)
	if len(s.MonitorReasons) > 0 {
		keys := make([]string, 0, len(s.MonitorReasons))
		for k := range s.MonitorReasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("monitor:        ")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, s.MonitorReasons[k])
		}
		b.WriteByte('\n')
	}
	if s.GuardEvents > 0 {
		fmt.Fprintf(&b, "guard events:    %d (transitions %d)\n", s.GuardEvents, s.GuardTransitionTotal)
		writeNamedCounts(&b, "guard faults", s.GuardFaults)
		writeNamedCounts(&b, "guard fallback", s.GuardFallbacks)
	}
	writeHist(&b, "sound width [m]", s.SoundWidth, 1)
	writeHist(&b, "fused width [m]", s.FusedWidth, 1)
	writeHist(&b, "cons window [s]", s.ConsWidth, 1)
	writeHist(&b, "aggr window [s]", s.AggrWidth, 1)
	writeHist(&b, "planner [µs]", s.PlannerLatency, 1e-3)
	if s.ProgressTotal > 0 {
		fmt.Fprintf(&b, "progress:        %d/%d\n", s.ProgressDone, s.ProgressTotal)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text renders the snapshot as a string (WriteText into a buffer).
func (s Snapshot) Text() string {
	var b strings.Builder
	_ = s.WriteText(&b)
	return b.String()
}

// writeNamedCounts prints one sorted key=value counter line.
func writeNamedCounts(b *strings.Builder, label string, counts map[string]int64) {
	if len(counts) == 0 {
		return
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%-16s", label+":")
	for _, k := range keys {
		fmt.Fprintf(b, " %s=%d", k, counts[k])
	}
	b.WriteByte('\n')
}

// writeHist prints one histogram line; scale converts the native unit for
// display (e.g. ns → µs).
func writeHist(b *strings.Builder, label string, h HistogramSnapshot, scale float64) {
	if h.Count == 0 {
		return
	}
	fmt.Fprintf(b, "%-16s n=%d mean=%.3g min=%.3g max=%.3g\n",
		label+":", h.Count, h.Mean*scale, h.Min*scale, h.Max*scale)
}
