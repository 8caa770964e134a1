package experiments

import (
	"math"
	"testing"

	"safeplan/internal/campaign"
	"safeplan/internal/core"
	"safeplan/internal/planner"
)

func TestAdversarialSettingsValid(t *testing.T) {
	ss := AdversarialSettings()
	if len(ss) != 6 {
		t.Fatalf("settings = %d", len(ss))
	}
	for _, s := range ss {
		if s.Model == nil && s.Sensor == nil {
			t.Errorf("%s: empty setting", s.Name)
		}
		if s.Model != nil {
			if err := s.Model.Validate(); err != nil {
				t.Errorf("%s: %v", s.Name, err)
			}
		}
		if s.Sensor != nil {
			if err := s.Sensor.Validate(); err != nil {
				t.Errorf("%s: %v", s.Name, err)
			}
		}
		if err := adversarialSim(s).Validate(); err != nil {
			t.Errorf("%s: sim config invalid: %v", s.Name, err)
		}
	}
}

// TestAdversarialSafetyInvariant is the acceptance criterion for the
// disturbance subsystem: the compound planner must stay collision-free
// (η ≥ 0) under every adversarial model, for both κ_n families, over at
// least 1000 episodes each.  The monitor only relies on the sound
// estimate; every channel model preserves it (delivered messages carry
// exact sender state, and biased readings stay inside ±δ), so any
// collision here is a soundness bug, not a tuning issue.
func TestAdversarialSafetyInvariant(t *testing.T) {
	const episodes = 1000
	pl := testPlanners()
	for _, s := range AdversarialSettings() {
		for _, kind := range []struct {
			name string
			p    planner.Planner
		}{{"conservative", pl.Cons}, {"aggressive", pl.Aggr}} {
			s, kind := s, kind
			t.Run(s.Name+"/"+kind.name, func(t *testing.T) {
				t.Parallel()
				// Ultimate + information filter: the full design must never
				// collide.  Fused-estimate misses are tolerated here — with
				// the Kalman component on, the fused interval is an
				// efficiency estimate, not the safety-bearing one (the
				// monitor uses the sound estimate; see failure_test.go).
				ultCfg := adversarialSim(s)
				ultCfg.InfoFilter = true
				ult := core.NewUltimate(ultCfg.Scenario, kind.p)
				rs, err := campaign.Results(campaign.Spec{Episodes: episodes, BaseSeed: testSeed}, campaign.LeftTurn(ultCfg, ult))
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rs {
					if r.Collided || r.Eta < 0 {
						t.Fatalf("episode %d (seed %d): ultimate collision under %s",
							i, testSeed+int64(i), s.Name)
					}
				}
				// Basic compound without the Kalman component: the fused
				// interval degenerates to the sound intersection, so any
				// violation is a genuine soundness bug in the disturbance
				// threading.
				basicCfg := adversarialSim(s)
				basic := core.NewBasic(basicCfg.Scenario, kind.p)
				rs, err = campaign.Results(campaign.Spec{Episodes: episodes, BaseSeed: testSeed}, campaign.LeftTurn(basicCfg, basic))
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rs {
					if r.Collided || r.Eta < 0 {
						t.Fatalf("episode %d (seed %d): basic collision under %s",
							i, testSeed+int64(i), s.Name)
					}
					if r.FusedIntervalMisses > 0 {
						t.Fatalf("episode %d: %d fused-estimate misses under %s",
							i, r.FusedIntervalMisses, s.Name)
					}
					if r.SoundViolations > 0 {
						t.Fatalf("episode %d: %d sound-estimate violations under %s",
							i, r.SoundViolations, s.Name)
					}
				}
			})
		}
	}
}

func TestWorstCaseTableShape(t *testing.T) {
	cells := triples(t, studyRows(t, "worstcase", testN))
	if len(cells) != 6 { // 6 settings × 3 designs
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		pure, basic, ult := c[0], c[1], c[2]
		if basic.SafeRate() != 1 || ult.SafeRate() != 1 {
			t.Errorf("%s: compound safe rates %v / %v", pure.Label, basic.SafeRate(), ult.SafeRate())
		}
		if !math.IsNaN(pure.EmergencyFreq) {
			t.Errorf("%s: pure row has emergency frequency", pure.Label)
		}
		if math.IsNaN(pure.Winning) {
			t.Errorf("%s: pure row missing winning percentage", pure.Label)
		}
	}
	// The aggressive pure planner must actually be stressed: unsafe in at
	// least the full worst-case setting.
	if last := cells[5][0]; last.SafeRate() >= 1 {
		t.Errorf("pure aggressive fully safe under %q (%v)", last.Label, last.SafeRate())
	}
}

func TestSweepBurstShape(t *testing.T) {
	pts := triples(t, studyRows(t, "burst", 60))
	if len(pts) != 10 || pts[0][0].X != 1 || pts[9][0].X != 10 {
		t.Fatalf("burst sweep x values wrong: %v … %v", pts[0][0].X, pts[len(pts)-1][0].X)
	}
	for _, pt := range pts {
		if pt[2].SafeRate() != 1 || pt[1].SafeRate() != 1 {
			t.Errorf("x=%v: compound unsafe", pt[0].X)
		}
	}
	// Longer bursts mean a higher stationary loss rate, so the ultimate
	// design's reaching time must degrade across the sweep.
	if pts[9][2].MeanReachTimeSafe <= pts[0][2].MeanReachTimeSafe {
		t.Errorf("ultimate reach should degrade with burst length: %v → %v",
			pts[0][2].MeanReachTimeSafe, pts[9][2].MeanReachTimeSafe)
	}
}
