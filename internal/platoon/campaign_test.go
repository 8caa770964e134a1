package platoon_test

// The platoon campaign test runs through campaign.Results, the one
// campaign runner, from this external test package (campaign imports
// platoon, so package platoon's own tests cannot reach it).

import (
	"fmt"
	"strings"
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/disturb"
	"safeplan/internal/platoon"
)

// TestCampaignDeterministicAcrossWorkers: the worker count must not leak
// into any platoon episode's random streams.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	cfg := platoon.DefaultSimConfig()
	m, err := disturb.Preset("worst")
	if err != nil {
		t.Fatal(err)
	}
	cfg.LinkComms = []comms.Config{
		comms.NoDisturbance(), comms.Disturbed(m), comms.Delayed(0.25, 0.5),
	}
	cfg.SensorDisturb = disturb.SensorDropout{PGoodBad: 0.04, PBadGood: 0.15, DropBad: 0.95}
	sc := cfg.LinkScenario()
	agent := carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
	run := func(workers int) string {
		rs, err := campaign.Results(campaign.Spec{Episodes: 24, BaseSeed: 7, Workers: workers}, campaign.Platoon(cfg, agent))
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(rs))
		for i, r := range rs {
			parts[i] = fmt.Sprintf("%+v", r)
		}
		return strings.Join(parts, "\n")
	}
	if a, b := run(1), run(8); a != b {
		t.Fatal("platoon campaign differs between 1 and 8 workers")
	}
}
