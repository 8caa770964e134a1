// Package safeplan is a safety-guaranteed framework for neural-network-
// based planners in connected vehicles under communication disturbance —
// a from-scratch Go reproduction of Chang et al., DATE 2023.
//
// Given any planner κ_n (an NN trained here by imitation, or any
// user-supplied policy), the framework produces a compound planner κ_c
// that (a) is guaranteed never to enter the unsafe set, enforced by a
// runtime monitor and an emergency planner, and (b) matches or beats the
// efficiency of κ_n, helped by an information filter over delayed V2V
// messages and noisy sensors and by an aggressive unsafe-set estimate fed
// to κ_n.
//
// # Quick start
//
//	scenario := safeplan.DefaultScenario()
//	kn := safeplan.NewConservativeExpert(scenario)   // or load/train an NN planner
//	agent := safeplan.BuildUltimate(scenario, kn)    // monitor + κ_e + filter + aggressive set
//	cfg := safeplan.DefaultSimConfig()
//	cfg.InfoFilter = true                            // pair ultimate agents with the filter
//	result, err := safeplan.RunEpisode(cfg, agent, 1 /* seed */)
//
// See the examples/ directory for runnable programs and internal/… for the
// substrate packages (dynamics, reachability, Kalman filtering, the V2V
// channel model, the unprotected-left-turn case study, and the experiment
// harness that regenerates every table and figure of the paper).
package safeplan

import (
	"fmt"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/dynamics"
	"safeplan/internal/eval"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
	"safeplan/internal/telemetry"
	"safeplan/internal/traffic"
)

// wrapErr gives every public entry point the same "safeplan:" error
// prefix, so callers can match on it uniformly.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("safeplan: %w", err)
}

// Core vocabulary, re-exported for downstream users.  The aliased types
// live in internal packages; the aliases are the supported public names.
type (
	// Scenario is the unprotected-left-turn scenario configuration
	// (geometry, vehicle limits, control period, margins, Eq. 8 buffers).
	Scenario = leftturn.Config
	// VehicleState is a (position, velocity) kinematic state.
	VehicleState = dynamics.State
	// VehicleLimits is a physical envelope (velocity and acceleration).
	VehicleLimits = dynamics.Limits
	// Interval is a closed real interval.
	Interval = interval.Interval
	// OncomingEstimate is planner-visible knowledge about the oncoming car.
	OncomingEstimate = leftturn.OncomingEstimate

	// Planner maps (t, ego state, oncoming window) to an acceleration.
	Planner = planner.Planner
	// PlannerFunc adapts a plain function to the Planner interface.
	PlannerFunc = planner.Func
	// Expert is an analytic rule policy (the imitation teacher).
	Expert = planner.Expert
	// NNPlanner is a trained neural-network planner.
	NNPlanner = planner.NNPlanner
	// TrainOptions drives imitation learning.
	TrainOptions = planner.TrainOptions

	// Agent is a closed-loop decision maker (pure κ_n or compound κ_c).
	Agent = core.Agent
	// Knowledge carries the sound and fused filter estimates per step.
	Knowledge = core.Knowledge
	// CompoundPlanner is the paper's κ_c.
	CompoundPlanner = core.Compound

	// CommsConfig describes the V2V channel disturbance.
	CommsConfig = comms.Config
	// Message is one V2V state report (the StepInput injection unit).
	Message = comms.Message
	// SensorConfig holds the uniform sensor noise half-widths.
	SensorConfig = sensor.Config
	// SensorReading is one onboard measurement (the StepInput injection
	// unit for sensed state).
	SensorReading = sensor.Reading
	// DriverConfig shapes the oncoming vehicle's random behaviour.
	DriverConfig = traffic.DriverConfig

	// SimConfig assembles one simulation campaign.  Beyond the paper's
	// settings, its Comms.Model and SensorDisturb fields select a
	// disturbance model, Guard and PlannerFault the planner guard and
	// injected compute faults, and Certify verified mode; Validate checks
	// every one of them.
	SimConfig = sim.Config
	// EpisodeResult scores one closed-loop episode.
	EpisodeResult = sim.Result
	// CampaignStats aggregates a campaign (Tables I–II statistics).
	CampaignStats = eval.Stats
)

// DefaultScenario returns the evaluation's unprotected-left-turn constants.
func DefaultScenario() Scenario { return leftturn.DefaultConfig() }

// DefaultSimConfig returns the evaluation defaults (perfect comms, δ = 1,
// Δt_m = Δt_s = 0.1 s, the paper's initial-condition sweep).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Channel disturbance settings of the paper's evaluation.
var (
	// NoDisturbance is perfect communication.
	NoDisturbance = comms.NoDisturbance
	// DelayedComms delays every message and drops each with probability pd.
	DelayedComms = comms.Delayed
	// LostComms drops every message (sensors only).
	LostComms = comms.Lost
	// UniformSensor sets δ_p = δ_v = δ_a = d.
	UniformSensor = sensor.Uniform
)

// Composable disturbance models (internal/disturb), re-exported so users
// can script channels beyond the paper's i.i.d. drop + constant delay.
type (
	// DisturbanceModel is a composable V2V channel disturbance process.
	DisturbanceModel = disturb.Model
	// SensorDisturbanceModel is an adversarial sensing-fault process.
	SensorDisturbanceModel = disturb.SensorModel
	// BurstLoss is a Gilbert–Elliott two-state burst-loss channel.
	BurstLoss = disturb.GilbertElliott
	// DelayJitter draws per-message latency (uniform + heavy tail), which
	// reorders messages in flight.
	DelayJitter = disturb.Jitter
	// StaleReplay wraps a model and re-delivers stale duplicate copies.
	StaleReplay = disturb.Replay
	// BlackoutModel drops every message while active.
	BlackoutModel = disturb.Blackout
	// DisturbanceSchedule scripts disturbance phases over episode time.
	DisturbanceSchedule = disturb.Schedule
	// DisturbancePhase is one (start time, model) entry of a schedule.
	DisturbancePhase = disturb.Phase
	// SensorBiasDrift drifts sensor readings toward the ±δ envelope edge.
	SensorBiasDrift = disturb.BiasDrift
	// SensorDropoutModel is a bursty sensing-dropout chain.
	SensorDropoutModel = disturb.SensorDropout
)

// Named disturbance presets (see internal/disturb/preset.go).
var (
	// DisturbancePreset resolves a named channel disturbance ("burst",
	// "jitter", "blackout", "worst", …).
	DisturbancePreset = disturb.Preset
	// DisturbancePresetNames lists the channel presets.
	DisturbancePresetNames = disturb.PresetNames
	// SensorDisturbancePreset resolves a named sensing disturbance.
	SensorDisturbancePreset = disturb.SensorPreset
	// SensorDisturbancePresetNames lists the sensing presets.
	SensorDisturbancePresetNames = disturb.SensorPresetNames
)

// Planner-fault containment (internal/guard, internal/faultinject): a
// guard wraps every κ_n invocation, catching panics, rejecting
// non-finite or out-of-envelope commands, enforcing a per-step compute
// deadline, and substituting a validated fallback — so a compute-faulty
// planner degrades to the emergency planner instead of crashing or
// steering the vehicle with garbage.  The paper's safety theorem needs
// only an admissible acceleration each step, which the fallback always
// supplies; see DESIGN.md §11 for the argument.
type (
	// GuardConfig tunes the planner guard (budgets, fallback TTL,
	// degradation thresholds).  Leave Limits zero to inherit the
	// scenario's ego envelope.
	GuardConfig = guard.Config
	// GuardState is the degradation state machine's level
	// (nominal → degraded → emergency-only).
	GuardState = guard.State
	// GuardEpisodeStats aggregates one episode's guard activity
	// (fault counts by class, fallback counts, state transitions).
	GuardEpisodeStats = guard.EpisodeStats
	// PlannerFaultModel is a composable compute-fault injection process
	// (panics, NaN outputs, stuck/biased output stages, latency spikes).
	PlannerFaultModel = faultinject.Model
)

// Guard degradation states, re-exported for switch statements over
// GuardEpisodeStats.WorstState.
const (
	GuardNominal       = guard.Nominal
	GuardDegraded      = guard.Degraded
	GuardEmergencyOnly = guard.EmergencyOnly
)

// DefaultGuardConfig returns the standard guard tuning for a vehicle
// envelope (0.1 s step budget, 5-step fallback TTL, 3/8 degradation
// scores, 20-step recovery streak).
func DefaultGuardConfig(lim VehicleLimits) GuardConfig { return guard.DefaultConfig(lim) }

// Named planner-fault presets (see internal/faultinject/preset.go).
var (
	// PlannerFaultPreset resolves a named compute-fault model ("panic",
	// "nan", "stuck", "bias", "latency", "flaky", "worst", …).
	PlannerFaultPreset = faultinject.Preset
	// PlannerFaultPresetNames lists the planner-fault presets.
	PlannerFaultPresetNames = faultinject.PresetNames
)

// FaultInvariants returns the checker set for guarded runs under planner
// fault injection: no collision, sound estimates, the Eq. 4 one-step
// slack, and guard-intervention well-formedness.  MonitorConsistency is
// deliberately absent — a guard-forced κ_e step diverges from the
// monitor's verdict by design.
func FaultInvariants(sc Scenario) []Invariant { return sim.FaultInvariants(sc) }

// Certified interval bound propagation (internal/nn/ibp): verified mode
// cross-checks every executed κ_n command against a sound interval
// enclosure of the NN planner's output, flagging (never substituting —
// the monitor envelope stays the enforcement layer) any command outside
// the certified range.  See DESIGN.md §15 for the soundness argument.
type (
	// IBPPropagator propagates interval boxes through an NN planner's MLP
	// with sign-split interval affine arithmetic; a point box reproduces
	// the scalar forward pass bit for bit.
	IBPPropagator = ibp.Propagator
	// CertifyConfig enables verified mode on a left-turn simulation
	// config through SimConfig.Certify.
	CertifyConfig = sim.CertifyConfig
)

// NewIBPPropagator snapshots a trained NN planner into an interval
// propagator for verified mode.  The snapshot is deep: later planner
// training does not affect the propagator.
func NewIBPPropagator(p *NNPlanner) (*IBPPropagator, error) {
	prop, err := ibp.New(p.Net, p.Norm)
	return prop, wrapErr(err)
}

// NewConservativeExpert returns the yield-first expert policy κ_n,cons.
func NewConservativeExpert(sc Scenario) *Expert { return planner.ConservativeExpert(sc) }

// NewAggressiveExpert returns the gap-taking expert policy κ_n,aggr.
func NewAggressiveExpert(sc Scenario) *Expert { return planner.AggressiveExpert(sc) }

// TrainPlanner imitation-trains an NN planner from an expert (or any
// Planner used as the teacher) and returns it with its final training loss.
func TrainPlanner(sc Scenario, teacher Planner, label string, opts TrainOptions) (*NNPlanner, float64, error) {
	p, loss, err := planner.TrainNNPlanner(sc, teacher, label, opts)
	return p, loss, wrapErr(err)
}

// LoadPlanner reads an NN planner saved with NNPlanner.Save.
func LoadPlanner(path, label string, sc Scenario) (*NNPlanner, error) {
	p, err := planner.LoadNNPlanner(path, label, sc.Ego)
	return p, wrapErr(err)
}

// BuildPure wraps κ_n without any safety machinery — the paper's baseline.
func BuildPure(sc Scenario, kn Planner) Agent { return &core.PureNN{Cfg: sc, Planner: kn} }

// BuildBasic builds the basic compound planner κ_cb: runtime monitor and
// emergency planner only.  Run it with SimConfig.InfoFilter = false.
func BuildBasic(sc Scenario, kn Planner) *CompoundPlanner { return core.NewBasic(sc, kn) }

// BuildUltimate builds the ultimate compound planner κ_cu: monitor,
// emergency planner, and aggressive unsafe-set estimation.  Pair it with
// SimConfig.InfoFilter = true to enable the information filter.
func BuildUltimate(sc Scenario, kn Planner) *CompoundPlanner { return core.NewUltimate(sc, kn) }

// Telemetry vocabulary, re-exported from internal/telemetry: collectors
// observe the engine's per-step probes (monitor selections, estimate
// widths, planner latency), per-episode outcomes, and campaign progress.
type (
	// Collector receives telemetry probes; implementations must be safe
	// for concurrent use (campaigns share one collector across workers).
	Collector = telemetry.Collector
	// StepProbe is one control step's observability payload.
	StepProbe = telemetry.StepProbe
	// EpisodeOutcome is the scored result of one finished episode.
	EpisodeOutcome = telemetry.EpisodeOutcome
	// Metrics is the standard atomic-counter/histogram collector.
	Metrics = telemetry.Metrics
	// MetricsSnapshot is a point-in-time copy of a Metrics collector,
	// encodable as JSON and renderable as text.
	MetricsSnapshot = telemetry.Snapshot
	// ProgressFunc adapts a callback to a progress-only Collector.
	ProgressFunc = telemetry.ProgressFunc
)

// NewMetrics returns an empty Metrics collector.
func NewMetrics() *Metrics { return telemetry.NewMetrics() }

// MultiCollector bundles several collectors into one (e.g. Metrics plus a
// ProgressFunc driving a console progress line).
func MultiCollector(cs ...Collector) Collector { return telemetry.Multi(cs...) }

// RunOption customizes the Run* entry points and NewStepper (functional
// options).  Options select only how a run is observed and scheduled;
// what is simulated — channel and sensing disturbance, the planner guard,
// injected planner faults, verified mode — is a field of the config the
// entry point takes, checked by that config's Validate.
type RunOption func(*runSettings)

type runSettings struct {
	trace      bool
	collector  telemetry.Collector
	workers    int
	workersSet bool
}

// WithTrace records the per-step trace in the episode result.  It is
// ignored by campaign entry points (a campaign of traces would dwarf the
// statistics it aggregates; run the interesting seed individually).
func WithTrace() RunOption { return func(s *runSettings) { s.trace = true } }

// WithCollector attaches a telemetry collector to the run.  The engine
// feeds it per-step probes and episode outcomes; compound agents
// additionally report their runtime-monitor selections, through a copy
// of the agent the entry point makes for the call, so concurrent calls
// may share one agent.  Campaigns share the collector across workers, so
// it must be concurrency-safe (telemetry.Metrics is).
func WithCollector(c Collector) RunOption { return func(s *runSettings) { s.collector = c } }

// WithWorkers bounds a campaign's episode-level parallelism to n
// goroutines (the default is one per core).  n must be ≥ 1; campaign
// entry points reject anything else.  Single-episode entry points ignore
// it beyond the validation.
func WithWorkers(n int) RunOption {
	return func(s *runSettings) {
		s.workers = n
		s.workersSet = true
	}
}

// run is the one skeleton behind every entry point: it folds the
// options, checks the worker count, makes the one call on the agent with
// the run's collector attached (campaign.WithCollector) and prefixes its
// error.
func run[A, T any](agent A, opts []RunOption, call func(A, runSettings) (T, error)) (T, error) {
	var s runSettings
	for _, o := range opts {
		o(&s)
	}
	if s.workersSet && s.workers < 1 {
		var zero T
		return zero, fmt.Errorf("safeplan: WithWorkers(%d): worker count must be >= 1", s.workers)
	}
	r, err := call(campaign.WithCollector(agent, s.collector), s)
	return r, wrapErr(err)
}

// episode is the per-episode options of a single-episode entry point.
func (s runSettings) episode(seed int64) sim.Options {
	return sim.Options{Seed: seed, Trace: s.trace, Collector: s.collector}
}

// campaign runs n seed-paired episodes of ep through campaign.Results
// under the campaign settings (collector, worker bound) and aggregates
// the paper's statistics.
func (s runSettings) campaign(name string, n int, baseSeed int64, ep campaign.EpisodeFunc) (CampaignStats, error) {
	rs, err := campaign.Results(campaign.Spec{
		Name:      name,
		Episodes:  n,
		BaseSeed:  baseSeed,
		Workers:   s.workers,
		Collector: s.collector,
	}, ep)
	if err != nil {
		return CampaignStats{}, err
	}
	return eval.Aggregate(rs), nil
}

// RunEpisode simulates one closed-loop episode.  Options select per-run
// behaviour: WithTrace records the per-step trace, WithCollector attaches
// a telemetry collector.
func RunEpisode(cfg SimConfig, agent Agent, seed int64, opts ...RunOption) (EpisodeResult, error) {
	return run(agent, opts, func(agent Agent, s runSettings) (EpisodeResult, error) {
		return sim.Run(cfg, agent, s.episode(seed))
	})
}

// RunCampaign simulates n episodes over seeds baseSeed…baseSeed+n−1 in
// parallel and aggregates the paper's statistics.  Options select
// campaign behaviour: WithCollector attaches a shared telemetry collector
// (fed per-step probes, episode outcomes, and campaign progress),
// WithWorkers bounds the parallelism.  Every worker shares agent, so it
// must hold no mutable state across calls; the expert and NN planners and
// the compound designs around them qualify, so the stats do not depend on
// the worker count.
func RunCampaign(cfg SimConfig, agent Agent, n int, baseSeed int64, opts ...RunOption) (CampaignStats, error) {
	return run(agent, opts, func(agent Agent, s runSettings) (CampaignStats, error) {
		return s.campaign("left-turn", n, baseSeed, campaign.LeftTurn(cfg, agent))
	})
}

// Sharded Monte-Carlo campaign engine (internal/campaign): deterministic
// parallel campaigns with online statistics (Welford moments, Wilson
// confidence intervals, latency percentiles), pluggable invariant checkers,
// and checkpoint/resume.  Aggregate statistics are bit-identical for any
// worker count.
type (
	// CampaignSpec configures a sharded campaign (episodes, base seed,
	// workers, invariants, checkpoint path).
	CampaignSpec = campaign.Spec
	// CampaignReport is a finished campaign: deterministic Stats plus
	// wall-clock Perf.
	CampaignReport = campaign.Report
	// CampaignEpisodeFunc runs one episode under campaign-filled options.
	CampaignEpisodeFunc = campaign.EpisodeFunc
	// EpisodeOptions is the per-episode options payload a campaign hands an
	// episode function (seed and invariants filled by the runner).  Named
	// here so custom CampaignEpisodeFunc implementations — not just the
	// four scenario adapters — can be written against the facade, and so
	// one episode of any scenario runs as
	// PlatoonCampaign(cfg, agent)(EpisodeOptions{Seed: seed, Trace: true}).
	EpisodeOptions = sim.Options

	// EpisodeScratch is the reusable per-episode arena behind the
	// zero-allocation stepping path (DESIGN.md §12).  It is purely an
	// optimization: results are bit-identical with and without one, and a
	// nil scratch gets a fresh arena per episode.  The
	// campaign engine pools arenas automatically; set EpisodeOptions.Scratch
	// only in custom episode loops that replay many episodes serially.
	EpisodeScratch = sim.Scratch

	// Invariant is a runtime safety checker threaded through the step loop;
	// the same checkers run in unit tests, fuzz targets, and campaigns.
	Invariant = sim.Invariant
	// InvariantViolation is the error an Invariant reports.
	InvariantViolation = sim.ViolationError
)

// Campaign episode adapters for the scenarios.
var (
	// LeftTurnCampaign adapts the single-vehicle left-turn runner.
	LeftTurnCampaign = campaign.LeftTurn
	// MultiVehicleCampaign adapts the multi-vehicle runner.
	MultiVehicleCampaign = campaign.MultiVehicle
	// CarFollowCampaign adapts the car-following runner.
	CarFollowCampaign = campaign.CarFollow
	// PlatoonCampaign adapts the N-vehicle chained-link platoon runner.
	PlatoonCampaign = campaign.Platoon
)

// RunShardedCampaign executes a deterministic sharded campaign; see
// CampaignSpec for the knobs and internal/campaign for the determinism
// contract.
func RunShardedCampaign(spec CampaignSpec, episode CampaignEpisodeFunc) (*CampaignReport, error) {
	rep, err := campaign.Run(spec, episode)
	return rep, wrapErr(err)
}

// StandardInvariants returns the full checker set for guaranteed left-turn
// compound designs: no collision (η ≥ 0), sound estimates contain the true
// state, the Eq. 4 emergency one-step slack, and monitor-selects-κ_e-iff-X_b
// consistency.  Attach them via CampaignSpec.Invariants; do not attach
// NoCollision to pure κ_n agents, which carry no guarantee.
func StandardInvariants(sc Scenario) []Invariant { return sim.StandardInvariants(sc) }

// Multi-vehicle API: the paper's system model includes messages from
// several other vehicles (§II-A, i = 1 … n−1); these entry points run the
// compound planner against a stream of oncoming vehicles crossing the
// conflict zone in sequence.
type (
	// MultiAgent is a closed-loop decision maker over several tracked
	// vehicles.
	MultiAgent = core.MultiAgent
	// MultiSimConfig extends SimConfig with the oncoming-stream layout.
	// Its Validate refuses Certify: the multi-vehicle engine has no
	// verified mode.
	MultiSimConfig = sim.MultiConfig
	// MultiCompoundPlanner is the multi-vehicle κ_c.
	MultiCompoundPlanner = core.MultiCompound
)

// DefaultMultiSimConfig returns a three-vehicle stream over the standard
// evaluation defaults.
func DefaultMultiSimConfig() MultiSimConfig { return sim.DefaultMultiConfig() }

// BuildMultiPure wraps κ_n against the most constraining vehicle, with no
// safety machinery.
func BuildMultiPure(sc Scenario, kn Planner) MultiAgent {
	return &core.MultiPure{Cfg: sc, Planner: kn}
}

// BuildMultiBasic builds the multi-vehicle basic compound planner.
func BuildMultiBasic(sc Scenario, kn Planner) *MultiCompoundPlanner {
	return core.NewMultiBasic(sc, kn)
}

// BuildMultiUltimate builds the multi-vehicle ultimate compound planner.
func BuildMultiUltimate(sc Scenario, kn Planner) *MultiCompoundPlanner {
	return core.NewMultiUltimate(sc, kn)
}

// RunMultiCampaign simulates n seed-paired episodes against oncoming
// streams and aggregates the statistics.  It accepts the same options as
// RunCampaign.
func RunMultiCampaign(cfg MultiSimConfig, agent MultiAgent, n int, baseSeed int64, opts ...RunOption) (CampaignStats, error) {
	return run(agent, opts, func(agent MultiAgent, s runSettings) (CampaignStats, error) {
		return s.campaign("multi-vehicle", n, baseSeed, campaign.MultiVehicle(cfg, agent))
	})
}

// Car-following case study (the paper's §II-A distance-gap unsafe set):
// a second scenario instantiating the same framework, demonstrating that
// the compound-planner construction is scenario-agnostic.
type (
	// CarFollowScenario is the car-following scenario configuration.
	CarFollowScenario = carfollow.Config
	// CarFollowSimConfig assembles a car-following campaign.
	CarFollowSimConfig = carfollow.SimConfig
	// CarFollowAgent is the closed-loop decision maker for car following.
	CarFollowAgent = carfollow.Agent
	// CarFollowPlanner is the planner abstraction for car following.
	CarFollowPlanner = carfollow.Planner
)

// DefaultCarFollowScenario returns the car-following constants.
func DefaultCarFollowScenario() CarFollowScenario { return carfollow.DefaultConfig() }

// DefaultCarFollowSimConfig returns the car-following campaign defaults.
func DefaultCarFollowSimConfig() CarFollowSimConfig { return carfollow.DefaultSimConfig() }

// NewCarFollowConservativeExpert returns the generous-headway cruise policy.
func NewCarFollowConservativeExpert(sc CarFollowScenario) CarFollowPlanner {
	return carfollow.ConservativeExpert(sc)
}

// NewCarFollowAggressiveExpert returns the tailgating cruise policy.
func NewCarFollowAggressiveExpert(sc CarFollowScenario) CarFollowPlanner {
	return carfollow.AggressiveExpert(sc)
}

// BuildCarFollowPure wraps a car-following κ_n with no safety machinery.
func BuildCarFollowPure(sc CarFollowScenario, kn CarFollowPlanner) CarFollowAgent {
	return &carfollow.Pure{Cfg: sc, Planner: kn}
}

// BuildCarFollowBasic builds the basic car-following compound planner.
func BuildCarFollowBasic(sc CarFollowScenario, kn CarFollowPlanner) CarFollowAgent {
	return carfollow.NewBasic(sc, kn)
}

// BuildCarFollowUltimate builds the ultimate car-following compound planner.
func BuildCarFollowUltimate(sc CarFollowScenario, kn CarFollowPlanner) CarFollowAgent {
	return carfollow.NewUltimate(sc, kn)
}

// RunCarFollowCampaign simulates n seed-paired car-following episodes and
// aggregates the statistics.  It accepts the same options as RunCampaign.
func RunCarFollowCampaign(cfg CarFollowSimConfig, agent CarFollowAgent, n int, baseSeed int64, opts ...RunOption) (CampaignStats, error) {
	return run(agent, opts, func(agent CarFollowAgent, s runSettings) (CampaignStats, error) {
		return s.campaign("car-following", n, baseSeed, campaign.CarFollow(cfg, agent))
	})
}

// Platoon extension (the ReachMM platooning setting over the paper's
// §II-A unsafe set): an N-vehicle chain behind an exogenous stop-and-go
// head, one NN-controlled vehicle under the full κ_n/κ_e compound stack,
// analytic followers behind it, and a chained V2V link — channel, sensor
// stream, fusion filter, optional disturbance — per vehicle pair.  A
// two-vehicle platoon reproduces the car-following episode byte for byte
// at matched config and seed.  The agent drives the NN-controlled vehicle
// and should be built against cfg.LinkScenario() so its monitoring
// matches the engine's.  PlatoonCampaign runs one episode
// (PlatoonCampaign(cfg, agent)(EpisodeOptions{Seed: seed})) or, through
// RunShardedCampaign, a campaign.
type (
	// PlatoonSimConfig assembles a platoon campaign.  It embeds
	// CarFollowSimConfig and adds the chain structure: vehicle count,
	// initial spacing, per-link channel and sensing overrides, and the
	// pairwise gap specification.
	PlatoonSimConfig = platoon.SimConfig
	// PlatoonGapSpec selects the pairwise unsafe-set variant.
	PlatoonGapSpec = platoon.GapSpec
	// PlatoonStringStability is the string-stability invariant: the peak
	// gap error must not amplify from each link to the next beyond the
	// configured tolerance.
	PlatoonStringStability = platoon.StringStability
)

// The pairwise gap specifications.
const (
	// PlatoonFixedGap is the paper's §II-A fixed distance-gap unsafe set
	// applied to every vehicle pair (the guaranteed variant).
	PlatoonFixedGap = platoon.FixedGap
	// PlatoonTimeGap is the ReachMM ACC requirement
	// Drel ≥ DDefault + TGap·v (scored, not guaranteed).
	PlatoonTimeGap = platoon.TimeGap
)

// DefaultPlatoonSimConfig returns the four-vehicle platoon defaults.
func DefaultPlatoonSimConfig() PlatoonSimConfig { return platoon.DefaultSimConfig() }

// Session API: every closed episode loop above is a thin loop over a
// resumable stepper engine that keeps every piece of episode state —
// channel, filters, guard state machine, RNG streams — inside one object,
// so a caller (an interactive tool, a co-simulation) can drive an episode
// one control step at a time and inject externally streamed V2V messages
// and sensor readings between steps.  cmd/serve hosts many such engines
// as concurrent network sessions.
type (
	// Stepper is the resumable left-turn episode engine: the oncoming
	// stream engine with one vehicle.
	Stepper = sim.MultiStepper
	// StepInput carries externally streamed events into one engine step.
	StepInput = sim.StepInput
	// StepOutcome reports one engine step's observable state.
	StepOutcome = sim.StepOutcome
)

// NewStepper builds a resumable left-turn episode engine.  It accepts the
// same options as RunEpisode; drive it with Step and settle it with
// Finish (mid-episode Finish yields the partial result).
func NewStepper(cfg SimConfig, agent Agent, seed int64, opts ...RunOption) (*Stepper, error) {
	return run(agent, opts, func(agent Agent, s runSettings) (*Stepper, error) {
		return sim.NewStepper(cfg, agent, s.episode(seed))
	})
}
