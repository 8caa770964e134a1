// Package workloads is the one registry of named campaigns: every row
// and smoke case of the cmd/bench suites and every design cell of the
// paper's studies (experiments.Studies with the expert planners).  Every
// process of a distributed campaign — coordinator, worker, bench,
// simulate — reconstructs the identical episode function and invariant
// set from a short wire-safe name.  Configurations and agents are not
// serializable (they carry closures, networks, and channel models), so
// the distribution protocol ships only the workload *name*; both sides
// construct the rest deterministically from this registry.  A name must
// therefore mean exactly one thing forever: changing what a registered
// name builds silently changes what a remote worker computes, and the
// package's golden test fails.
//
// Nothing is built at package level: Lookup and Names build the
// registry when they are called.
package workloads

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/experiments"
	"safeplan/internal/faultinject"
	"safeplan/internal/guard"
	"safeplan/internal/leftturn"
	"safeplan/internal/nn/ibp"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sim"
)

// Workload is one named campaign: the agent its episodes drive, the
// invariant checkers that audit them and the episode function.
type Workload struct {
	Name       string
	Agent      string
	Invariants []sim.Invariant
	Episode    campaign.EpisodeFunc
}

// entry is one registered name and the builder of its workload; models
// is the trained-model directory the certify/* workloads read.
type entry struct {
	name  string
	build func(models string) (Workload, error)
}

// Lookup builds the workload registered as name.  models is the
// trained-model directory the certify/* workloads load; the others
// ignore it.
func Lookup(name, models string) (Workload, error) {
	es := registry()
	for _, e := range es {
		if e.name == name {
			return e.build(models)
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (%d are registered; campaignd -list prints them)", name, len(es))
}

// Names lists the registered workload names, sorted.
func Names() []string {
	var out []string
	for _, e := range registry() {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}

// Resolver is Lookup as a dist worker resolves a coordinator's workload
// name, with models for the certify/* workloads.
func Resolver(models string) func(name string) (campaign.EpisodeFunc, []sim.Invariant, error) {
	return func(name string) (campaign.EpisodeFunc, []sim.Invariant, error) {
		w, err := Lookup(name, models)
		return w.Episode, w.Invariants, err
	}
}

// InvariantSet is the full checker set for guaranteed compound designs
// (no collision, sound estimates, Eq. 4 emergency one-step,
// monitor-iff-boundary).
func InvariantSet(cfg sim.Config) []sim.Invariant {
	return []sim.Invariant{
		sim.NoCollision{},
		sim.SoundEstimate{},
		sim.EmergencyOneStep{Cfg: cfg.Scenario},
		sim.NewMonitorConsistency(cfg.Scenario),
	}
}

// registry builds every entry: the canonical, fault, certification and
// platoon matrices with their smoke cases, then the study cells.
func registry() []entry {
	var es []entry
	add := func(w Workload) {
		es = append(es, entry{w.Name, func(string) (Workload, error) { return w, nil }})
	}
	leftTurn := func(name string, cfg sim.Config, agent core.Agent, invariants []sim.Invariant) {
		add(Workload{name, agent.Name(), invariants, campaign.LeftTurn(cfg, agent)})
	}
	sc := leftturn.DefaultConfig()
	experts := experiments.ExpertPlanners(sc)

	// The canonical matrix: the paper's three communication settings ×
	// both expert planners under the ultimate design, the burst and worst
	// disturbance presets, and burst loss with biased sensing.  smoke/*
	// is the CI safety gate: the aggressive expert (which exercises κ_e
	// hardest) with and without delayed messages.
	for i, s := range experiments.StandardSettings() {
		cfg := experiments.SettingConfig(s)
		cfg.InfoFilter = true
		setting := []string{"none", "delayed", "lost"}[i]
		leftTurn(setting+"/ultimate-conservative", cfg, core.NewUltimate(sc, experts.Cons), InvariantSet(cfg))
		leftTurn(setting+"/ultimate-aggressive", cfg, core.NewUltimate(sc, experts.Aggr), InvariantSet(cfg))
		if i < 2 {
			smoke := []string{"clean", "delayed"}[i]
			leftTurn("smoke/"+smoke+"/ultimate-aggressive", cfg, core.NewUltimate(sc, experts.Aggr), InvariantSet(cfg))
		}
	}
	for _, d := range []struct{ name, channel, sensing string }{
		{"disturb-burst", "burst", ""},
		{"disturb-worst", "worst", ""},
		{"disturb-burst-sensor-bias", "burst", "bias"},
	} {
		cfg := sim.DefaultConfig()
		cfg.Comms = comms.Disturbed(must(disturb.Preset(d.channel)))
		if d.sensing != "" {
			cfg.SensorDisturb = must(disturb.SensorPreset(d.sensing))
		}
		cfg.InfoFilter = true
		leftTurn(d.name+"/ultimate-conservative", cfg, core.NewUltimate(sc, experts.Cons), InvariantSet(cfg))
	}

	// The fault matrix: the guarded ultimate conservative design under
	// every planner-fault preset, and guard-smoke/*, the guard's CI gate:
	// half of all planner calls panicking or returning NaN, with the
	// guard the fault model installs by default.  MonitorConsistency is
	// absent from their checkers by design: a guard-forced κ_e step
	// diverges from the monitor's verdict — that divergence is the
	// containment the remaining checkers assert.
	fault := func(name string, m faultinject.Model, withGuard bool) {
		cfg := sim.DefaultConfig()
		cfg.InfoFilter = true
		cfg.PlannerFault = m
		if withGuard {
			gc := guard.DefaultConfig(cfg.Scenario.Ego)
			cfg.Guard = &gc
		}
		leftTurn(name, cfg, core.NewUltimate(sc, experts.Cons), []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			sim.EmergencyOneStep{Cfg: cfg.Scenario},
			sim.NewGuardConsistency(cfg.Scenario),
		})
	}
	for _, p := range faultinject.PresetNames() {
		fault("fault-"+p+"/ultimate-conservative", must(faultinject.Preset(p)), true)
	}
	fault("guard-smoke/panic-half", faultinject.PanicP{P: 0.5}, false)
	fault("guard-smoke/nan-half", faultinject.NaNOutput{P: 0.5}, false)

	// The certification sweep: every trained-NN design on the clean
	// canonical scenario in IBP verified mode.  NoCollision stays out of
	// the set: the pure NN baseline has no safety guarantee by design,
	// and the sweep audits certification, not safety.  SoundEstimate
	// still runs — certification rests on it.
	for _, c := range []struct {
		name   string
		aggr   bool
		design func(planner.Planner) core.Agent
	}{
		{"certify/pure-nn-cons", false, func(p planner.Planner) core.Agent { return &core.PureNN{Cfg: sc, Planner: p} }},
		{"certify/basic-nn-cons", false, func(p planner.Planner) core.Agent { return core.NewBasic(sc, p) }},
		{"certify/ultimate-nn-cons", false, func(p planner.Planner) core.Agent { return core.NewUltimate(sc, p) }},
		{"certify/ultimate-nn-aggr", true, func(p planner.Planner) core.Agent { return core.NewUltimate(sc, p) }},
	} {
		es = append(es, entry{c.name, func(models string) (Workload, error) {
			pl, err := experiments.LoadPlanners(models, sc)
			if err != nil {
				return Workload{}, fmt.Errorf("workloads: %s: load planners from %s: %w", c.name, models, err)
			}
			nn := pl.Cons.(*planner.NNPlanner)
			if c.aggr {
				nn = pl.Aggr.(*planner.NNPlanner)
			}
			prop, err := ibp.New(nn.Net, nn.Norm)
			if err != nil {
				return Workload{}, fmt.Errorf("workloads: %s: propagator: %w", c.name, err)
			}
			cfg := sim.DefaultConfig()
			cfg.InfoFilter = true
			cfg.Certify = &sim.CertifyConfig{Prop: prop}
			agent := c.design(nn)
			return Workload{c.name, agent.Name(), []sim.Invariant{sim.SoundEstimate{}}, campaign.LeftTurn(cfg, agent)}, nil
		}})
	}

	// The platoon matrix on the default four-vehicle chain: every
	// canonical communication setting applied uniformly to all V2V links,
	// then the burst preset on each link alone.  platoon-smoke/* is the
	// platoon's CI gate: the clean chain and the burst on link 0, the
	// link the compound planner (vehicle 1) reads.  Each runs the
	// ultimate compound design around the aggressive expert, built
	// against the effective per-link scenario so its monitoring matches
	// the engine's, with the chain's checkers — pairwise no-collision,
	// per-link sound estimates, the true-state stopping-distance slack
	// and the string-stability bound on consecutive-link peak gap errors.
	chain := func(name string, channel comms.Config, burstLink int) {
		cfg := platoon.DefaultSimConfig()
		cfg.Comms = channel
		cfg.InfoFilter = true
		if burstLink >= 0 {
			cfg.LinkComms = make([]comms.Config, cfg.Vehicles-1)
			for l := range cfg.LinkComms {
				cfg.LinkComms[l] = comms.NoDisturbance()
			}
			cfg.LinkComms[burstLink] = comms.Disturbed(must(disturb.Preset("burst")))
		}
		lsc := cfg.LinkScenario()
		agent := carfollow.NewUltimate(lsc, carfollow.AggressiveExpert(lsc))
		add(Workload{name, agent.Name(), []sim.Invariant{
			sim.NoCollision{},
			sim.SoundEstimate{},
			carfollow.TrueSlack{Cfg: lsc},
			platoon.StringStability{},
		}, campaign.Platoon(cfg, agent)})
	}
	clean := platoon.DefaultSimConfig().Comms
	chain("platoon/clean", clean, -1)
	chain("platoon/delayed-all-links", comms.Delayed(experiments.DelayedDelay, experiments.DelayedDropProb), -1)
	chain("platoon/lost-all-links", comms.Lost(), -1)
	for link := 0; link < platoon.DefaultSimConfig().Vehicles-1; link++ {
		chain(fmt.Sprintf("platoon/burst-link-%d", link), clean, link)
	}
	chain("platoon-smoke/clean", clean, -1)
	chain("platoon-smoke/burst-nn-link", clean, 0)

	// The study cells, <study id>/<cell label, or x>/<design>, with the
	// sound-estimate contract every design of every scenario family
	// keeps (their collisions are in the campaign stats).  Studies that
	// show two projections of one campaign (Fig. 5a/5b) register it once,
	// under the first id.
	seen := map[*experiments.Campaign]bool{}
	for _, st := range experiments.Studies(experiments.ExpertPlanners(sc)) {
		if st.Campaign == nil || seen[st.Campaign] {
			continue
		}
		seen[st.Campaign] = true
		for _, cell := range st.Campaign.Cells {
			at := cell.Label
			if at == "" {
				at = strings.TrimRight(strings.TrimRight(strconv.FormatFloat(cell.X, 'f', 3, 64), "0"), ".")
			}
			for _, d := range cell.Designs {
				add(Workload{slug(st.ID) + "/" + slug(at) + "/" + slug(d.Name), d.Agent, []sim.Invariant{sim.SoundEstimate{}}, d.Episode})
			}
		}
	}
	return es
}

// slug lowercases s and joins its runs of letters, digits, '.', '+' and
// '-' with '-': "delayed all links, N=2" is "delayed-all-links-n-2".
func slug(s string) string {
	return strings.Join(strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || strings.ContainsRune(".+-", r))
	}), "-")
}

// must unwraps a preset lookup by a name the registry spells out; a
// failure is a programming error, not an input error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
