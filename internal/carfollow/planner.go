package carfollow

import (
	"fmt"

	"safeplan/internal/dynamics"
	"safeplan/internal/mat"
	"safeplan/internal/nn"
	"safeplan/internal/telemetry"
	"safeplan/internal/xrand"
)

// Planner decides the ego acceleration for car following.  The assumed
// lead braking (conservative: the physical a_min; aggressive: the Eq.-8-
// style buffered value) is chosen by the surrounding agent, which is how
// the aggressive unsafe-set estimation reaches the planner without
// retraining — exactly as in the left-turn study.
type Planner interface {
	// Name identifies the planner in results tables.
	Name() string
	// Accel returns the commanded acceleration.
	Accel(t float64, ego dynamics.State, lead LeadEstimate, assumedBrake float64) float64
}

// Expert is the analytic cruise policy: track a target headway of
// RequiredGap + Headway·v + Buffer with proportional gap and speed terms.
type Expert struct {
	Cfg Config

	Headway   float64 // time headway [s]
	Buffer    float64 // constant extra spacing [m]
	GainGap   float64 // accel per metre of gap error
	GainSpeed float64 // accel per m/s of speed difference

	Label string
}

// ConservativeExpert keeps a generous headway; safe standalone.
func ConservativeExpert(cfg Config) *Expert {
	return &Expert{Cfg: cfg, Headway: 1.8, Buffer: 4, GainGap: 0.5, GainSpeed: 0.9,
		Label: "cf-expert-conservative"}
}

// AggressiveExpert tailgates; fast, but rear-ends a hard-braking lead when
// run bare under communication disturbance.
func AggressiveExpert(cfg Config) *Expert {
	return &Expert{Cfg: cfg, Headway: 0.35, Buffer: 0.8, GainGap: 0.9, GainSpeed: 1.1,
		Label: "cf-expert-aggressive"}
}

// Name implements Planner.
func (e *Expert) Name() string { return e.Label }

// Accel implements Planner.
func (e *Expert) Accel(_ float64, ego dynamics.State, lead LeadEstimate, assumedBrake float64) float64 {
	c := &e.Cfg
	if lead.P.IsEmpty() {
		// Free road: cruise at the speed limit.
		return min(c.Ego.AMax, (c.Ego.VMax-ego.V)/0.8)
	}
	gap := lead.PointP - ego.P - c.PGap
	target := c.RequiredGap(ego.V, lead.PointV, assumedBrake) + e.Headway*ego.V + e.Buffer
	a := e.GainGap*(gap-target) + e.GainSpeed*(lead.PointV-ego.V)
	// Never command past the speed limit; the envelope clamp handles the
	// rest.
	if ego.V >= c.Ego.VMax && a > 0 {
		a = 0
	}
	return max(c.Ego.AMin, min(c.Ego.AMax, a))
}

// NNPlanner is an imitation-trained network over Config.Features.
type NNPlanner struct {
	Label string
	Net   *nn.Network
	Norm  *nn.Normalizer
	Cfg   Config
}

// Name implements Planner.
func (p *NNPlanner) Name() string { return p.Label }

// Accel implements Planner.  It writes nothing to p, so one planner may
// serve concurrent campaign workers.
func (p *NNPlanner) Accel(_ float64, ego dynamics.State, lead LeadEstimate, assumedBrake float64) float64 {
	feats := p.Cfg.Features(ego, lead, assumedBrake)
	if p.Norm != nil {
		p.Norm.Apply(feats[:])
	}
	a := p.Net.Predict1(feats[:])
	return max(p.Cfg.Ego.AMin, min(p.Cfg.Ego.AMax, a))
}

// TrainOptions drives car-following imitation learning.  The expert policy
// is a pure function of the feature vector, so uniform feature sampling
// covers it without closed-loop rollouts.
type TrainOptions struct {
	Hidden    []int // nil selects {24, 24}
	Samples   int   // 0 selects 12000
	Epochs    int   // 0 selects 40
	BatchSize int   // 0 selects 64
	LR        float64
	Seed      int64
}

func (o *TrainOptions) fill() {
	if len(o.Hidden) == 0 {
		o.Hidden = []int{24, 24}
	}
	if o.Samples <= 0 {
		o.Samples = 12000
	}
	if o.Epochs <= 0 {
		o.Epochs = 40
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.LR <= 0 {
		o.LR = 3e-3
	}
}

// TrainNNPlanner imitates the expert over sampled planner-visible states.
func TrainNNPlanner(cfg Config, expert Planner, label string, opts TrainOptions) (*NNPlanner, float64, error) {
	opts.fill()
	rng := xrand.New(opts.Seed)
	x := mat.NewDense(opts.Samples, 5)
	y := mat.NewDense(opts.Samples, 1)
	for i := 0; i < opts.Samples; i++ {
		ego := dynamics.State{P: 0, V: rng.Float64() * cfg.Ego.VMax}
		gap := rng.Float64() * 80
		leadV := rng.Float64() * cfg.Lead.VMax
		leadA := cfg.Lead.AMin + rng.Float64()*(cfg.Lead.AMax-cfg.Lead.AMin)
		lead := ExactLead(dynamics.State{P: ego.P + cfg.PGap + gap, V: leadV}, leadA)
		var assumed float64
		if rng.Float64() < 0.5 {
			assumed = cfg.Lead.AMin
		} else {
			assumed = cfg.AggressiveAssumedBrake(leadA)
		}
		feats := cfg.Features(ego, lead, assumed)
		copy(x.Row(i), feats[:])
		y.Set(i, 0, expert.Accel(0, ego, lead, assumed))
	}
	ds, err := nn.NewDataset(x, y)
	if err != nil {
		return nil, 0, fmt.Errorf("carfollow: dataset: %w", err)
	}
	norm := nn.FitNormalizer(ds.X)
	norm.ApplyMatrix(ds.X)
	sizes := append([]int{5}, opts.Hidden...)
	sizes = append(sizes, 1)
	net := nn.NewMLP(xrand.New(opts.Seed+1), nn.Tanh{}, sizes...)
	loss := net.Fit(ds, &nn.Adam{LR: opts.LR}, nn.TrainConfig{
		Epochs:    opts.Epochs,
		BatchSize: opts.BatchSize,
		Seed:      opts.Seed + 2,
	})
	return &NNPlanner{Label: label, Net: net, Norm: norm, Cfg: cfg}, loss, nil
}

// Knowledge carries the sound and fused lead estimates for one step.
type Knowledge struct {
	Sound LeadEstimate // guaranteed to contain the true lead state
	Fused LeadEstimate // sharpest available (Kalman-joined when enabled)
}

// Agent is the closed-loop decision maker for car following.
type Agent interface {
	// Name identifies the agent in results tables.
	Name() string
	// Accel returns the acceleration command and an emergency flag.
	Accel(t float64, ego dynamics.State, k Knowledge) (a float64, emergency bool)
}

// Pure runs κ_n bare with the conservative (physical) braking assumption.
type Pure struct {
	Cfg     Config
	Planner Planner
}

// Name implements Agent.
func (p *Pure) Name() string { return "pure:" + p.Planner.Name() }

// Accel implements Agent.
func (p *Pure) Accel(t float64, ego dynamics.State, k Knowledge) (float64, bool) {
	return p.Planner.Accel(t, ego, k.Fused, p.Cfg.Lead.AMin), false
}

// Compound is the car-following compound planner: the monitor's one-step
// worst-case lookahead on the *sound* estimate selects κ_e (maximum
// braking); otherwise κ_n plans with its braking assumption.  Because a
// negative verdict certifies that even full throttle keeps the next-step
// slack nonnegative, κ_n's output needs no further clamping — any
// admissible acceleration is safe.
type Compound struct {
	Cfg     Config
	Planner Planner

	// Aggressive selects the buffered braking assumption for κ_n.
	Aggressive bool

	// Collector, when non-nil, receives the monitor's selection reason
	// every control step.
	Collector telemetry.Collector

	label string
}

// NewBasic builds the basic compound design (monitor + κ_e only).
func NewBasic(cfg Config, p Planner) *Compound {
	return &Compound{Cfg: cfg, Planner: p, label: "basic:" + p.Name()}
}

// NewUltimate builds the ultimate design (adds the aggressive estimation;
// pair with the information filter in the simulator).
func NewUltimate(cfg Config, p Planner) *Compound {
	return &Compound{Cfg: cfg, Planner: p, Aggressive: true, label: "ultimate:" + p.Name()}
}

// Name implements Agent.
func (c *Compound) Name() string {
	if c.label != "" {
		return c.label
	}
	return "compound:" + c.Planner.Name()
}

// Accel implements Agent.
func (c *Compound) Accel(t float64, ego dynamics.State, k Knowledge) (float64, bool) {
	if c.Cfg.InUnsafeSet(ego, k.Sound) {
		c.decide(telemetry.ReasonUnsafe)
		return c.Cfg.EmergencyAccel(ego), true
	}
	if c.Cfg.InBoundarySafeSet(ego, k.Sound) {
		c.decide(telemetry.ReasonBoundary)
		return c.Cfg.EmergencyAccel(ego), true
	}
	c.decide(telemetry.ReasonPlanner)
	assumed := c.Cfg.Lead.AMin
	if c.Aggressive {
		assumed = c.Cfg.AggressiveAssumedBrake(k.Fused.A)
	}
	return c.Planner.Accel(t, ego, k.Fused, assumed), false
}

// decide reports the step's monitor selection to the collector.
func (c *Compound) decide(reason string) {
	if c.Collector != nil {
		c.Collector.OnMonitorDecision(reason)
	}
}
