package safeplan_test

import (
	"reflect"
	"testing"

	"safeplan"
)

// TestPlatoonFacade exercises the public platoon route: a chained
// four-vehicle episode through the PlatoonCampaign adapter, the sharded
// campaign engine with the string-stability checker in fail mode, and
// the two-vehicle equivalence with the car-following runner.
func TestPlatoonFacade(t *testing.T) {
	cfg := safeplan.DefaultPlatoonSimConfig()
	cfg.InfoFilter = true
	sc := cfg.LinkScenario()
	agent := safeplan.BuildCarFollowUltimate(sc, safeplan.NewCarFollowConservativeExpert(sc))

	r, err := safeplan.PlatoonCampaign(cfg, agent)(safeplan.EpisodeOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Collided {
		t.Fatal("guaranteed design collided")
	}
	if len(r.Links) != cfg.Vehicles-1 {
		t.Fatalf("links = %d, want %d", len(r.Links), cfg.Vehicles-1)
	}

	sharded := func(name string, episodes, workers int, inv []safeplan.Invariant, ep safeplan.CampaignEpisodeFunc) *safeplan.CampaignReport {
		t.Helper()
		rep, err := safeplan.RunShardedCampaign(safeplan.CampaignSpec{
			Name:       name,
			Episodes:   episodes,
			BaseSeed:   100,
			Workers:    workers,
			Invariants: inv,
		}, ep)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	rep := sharded("platoon-facade", 60, 4,
		[]safeplan.Invariant{safeplan.PlatoonStringStability{}},
		safeplan.PlatoonCampaign(cfg, agent))
	if rep.Stats.Collided != 0 {
		t.Fatalf("sharded platoon campaign collided %d times", rep.Stats.Collided)
	}

	// N = 2 is the car-following scenario: the aggregates must agree.
	two := cfg
	two.Vehicles = 2
	pst := sharded("two", 20, 2, nil, safeplan.PlatoonCampaign(two, agent)).Stats
	cst := sharded("two", 20, 2, nil, safeplan.CarFollowCampaign(two.SimConfig, agent)).Stats
	if !reflect.DeepEqual(pst, cst) {
		t.Fatalf("two-vehicle platoon stats diverge from car following:\nplatoon:   %+v\ncarfollow: %+v", pst, cst)
	}
}
