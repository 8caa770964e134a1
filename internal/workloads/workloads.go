// Package workloads names the canonical campaign workloads so every
// process in a distributed campaign — coordinator, worker, bench — can
// reconstruct the identical episode function and invariant-checker set
// from a short wire-safe name.  Configurations and agents are not
// serializable (they carry closures, networks, and channel models), so
// the distribution protocol ships only the workload *name*; both sides
// construct the rest deterministically from this registry.  A name must
// therefore mean exactly one thing forever: changing what a registered
// name builds silently changes what a remote worker computes.
package workloads

import (
	"fmt"
	"sort"

	"safeplan/internal/campaign"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/experiments"
	"safeplan/internal/sim"
)

// Workload is one named left-turn campaign configuration.
type Workload struct {
	Name  string
	Cfg   sim.Config
	Agent core.Agent
}

// Episode adapts the workload for the campaign engine.
func (w Workload) Episode() campaign.EpisodeFunc {
	return campaign.LeftTurn(w.Cfg, w.Agent)
}

// Invariants is the workload's full checker set for guaranteed compound
// designs (no collision, sound estimates, Eq. 4 emergency one-step,
// monitor-iff-boundary).
func (w Workload) Invariants() []sim.Invariant {
	return InvariantSet(w.Cfg)
}

// InvariantSet is the full checker set for guaranteed compound designs.
func InvariantSet(cfg sim.Config) []sim.Invariant {
	return []sim.Invariant{
		sim.NoCollision{},
		sim.SoundEstimate{},
		sim.EmergencyOneStep{Cfg: cfg.Scenario},
		sim.NewMonitorConsistency(cfg.Scenario),
	}
}

// CanonicalMatrix builds the benchmark workloads: the paper's three
// communication settings × both expert planners under the ultimate
// design, plus two adversarial disturbance presets.  quick keeps one
// workload per axis so regression snapshots stay cheap and stable.
func CanonicalMatrix(quick bool) []Workload {
	var out []Workload
	settings := experiments.StandardSettings()
	short := map[string]string{
		"no disturbance":   "none",
		"messages delayed": "delayed",
		"messages lost":    "lost",
	}
	kinds := []experiments.PlannerKind{experiments.Conservative, experiments.Aggressive}
	if quick {
		kinds = kinds[:1]
	}
	for _, s := range settings {
		for _, k := range kinds {
			cfg := experiments.SettingConfig(s)
			cfg.InfoFilter = true
			pl := experiments.ExpertPlanners(cfg.Scenario).Pick(k)
			out = append(out, Workload{
				Name:  short[s.Name] + "/ultimate-" + k.String(),
				Cfg:   cfg,
				Agent: core.NewUltimate(cfg.Scenario, pl),
			})
		}
	}
	presets := []string{"burst", "worst"}
	if quick {
		presets = presets[:1]
	}
	for _, p := range presets {
		m, err := disturb.Preset(p)
		if err != nil {
			// The preset names above are registry constants; a failure
			// here is a programming error, not an input error.
			panic(err)
		}
		cfg := sim.DefaultConfig()
		cfg.Comms = comms.Disturbed(m)
		cfg.InfoFilter = true
		pl := experiments.ExpertPlanners(cfg.Scenario).Cons
		out = append(out, Workload{
			Name:  "disturb-" + p + "/ultimate-conservative",
			Cfg:   cfg,
			Agent: core.NewUltimate(cfg.Scenario, pl),
		})
	}
	return out
}

// Lookup resolves a workload name from the full canonical matrix.
// Construction is deliberately lazy and per-call: agents hold mutable
// per-episode scratch only behind the engine's pooling, but a fresh
// agent per process keeps distributed workers fully independent.
func Lookup(name string) (Workload, error) {
	for _, w := range CanonicalMatrix(false) {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q (known: %v)", name, Names())
}

// Names lists the registered workload names, sorted.
func Names() []string {
	var out []string
	for _, w := range CanonicalMatrix(false) {
		out = append(out, w.Name)
	}
	sort.Strings(out)
	return out
}
