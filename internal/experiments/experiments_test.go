package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"safeplan/internal/disturb"
	"safeplan/internal/leftturn"
)

const (
	testN    = 120
	testSeed = 7
)

func testPlanners() Planners {
	return ExpertPlanners(leftturn.DefaultConfig())
}

func TestStandardSettings(t *testing.T) {
	ss := StandardSettings()
	if len(ss) != 3 {
		t.Fatalf("settings = %d", len(ss))
	}
	if ss[2].Comms.Model != (disturb.Blackout{}) {
		t.Fatalf("third setting = %+v, must be messages-lost", ss[2].Comms)
	}
	if ss[1].Comms.Model != (disturb.IID{DropProb: DelayedDropProb, Delay: DelayedDelay}) {
		t.Fatalf("delayed setting = %+v", ss[1].Comms)
	}
}

// studyRows runs study id's campaign with the expert planners.
func studyRows(t *testing.T, id string, n int) []Row {
	t.Helper()
	for _, s := range Studies(testPlanners()) {
		if s.ID == id {
			rows, err := s.Campaign.Run(n, testSeed)
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
	}
	t.Fatalf("no study %q", id)
	return nil
}

// triples splits a comparison study's rows into its cells' pure, basic
// and ultimate rows.
func triples(t *testing.T, rows []Row) [][3]Row {
	t.Helper()
	if len(rows)%3 != 0 {
		t.Fatalf("%d rows is not a whole number of pure/basic/ultimate cells", len(rows))
	}
	var out [][3]Row
	for i := 0; i < len(rows); i += 3 {
		c := [3]Row{rows[i], rows[i+1], rows[i+2]}
		if c[0].Design != PureNN || c[1].Design != Basic || c[2].Design != Ultimate {
			t.Fatalf("cell %d designs = %q, %q, %q", i/3, c[0].Design, c[1].Design, c[2].Design)
		}
		out = append(out, c)
	}
	return out
}

// TestStudyWorkerParity pins every campaign study end to end: its rows,
// paired winning % included, are byte-identical at GOMAXPROCS 1 and 4
// (campaigns run at one worker per core).  Every study runs with the
// expert planners; Tables I–II also with the committed NN models, which
// every worker shares.
func TestStudyWorkerParity(t *testing.T) {
	models, err := LoadPlanners("../../models", leftturn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		pl     Planners
		n      int
		tables bool // Tables I–II only
	}{
		{"expert", testPlanners(), 20, false},
		{"nn", models, 200, true},
	} {
		seen := map[*Campaign]bool{}
		for _, s := range Studies(c.pl) {
			if s.Campaign == nil || seen[s.Campaign] || c.tables && s.ID != "table1" && s.ID != "table2" {
				continue
			}
			seen[s.Campaign] = true
			t.Run(c.name+"/"+s.ID, func(t *testing.T) {
				rowsAt := func(procs int) string {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					rows, err := s.Campaign.Run(c.n, testSeed)
					if err != nil {
						t.Fatal(err)
					}
					return fmt.Sprintf("%+v", rows)
				}
				if one, four := rowsAt(1), rowsAt(4); one != four {
					t.Fatalf("rows differ between GOMAXPROCS 1 and 4:\n1: %s\n4: %s", one, four)
				}
			})
		}
	}
}

func TestTableConservativeShape(t *testing.T) {
	cells := triples(t, studyRows(t, "table1", testN))
	if len(cells) != 3 { // 3 settings × 3 designs
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		for _, r := range c {
			// Paper shape: every design 100% safe with the conservative κ_n.
			if r.SafeRate() != 1 {
				t.Errorf("%s/%s safe rate = %v", r.Label, r.Design, r.SafeRate())
			}
		}
	}
	// Ultimate must be faster than pure and basic in every setting, and
	// pure ≈ basic.
	for _, c := range cells {
		pure, basic, ult := c[0], c[1], c[2]
		if ult.MeanReachTimeSafe >= pure.MeanReachTimeSafe {
			t.Errorf("%s: ultimate %v not faster than pure %v", pure.Label, ult.MeanReachTimeSafe, pure.MeanReachTimeSafe)
		}
		if math.Abs(pure.MeanReachTimeSafe-basic.MeanReachTimeSafe) > 0.2 {
			t.Errorf("%s: basic %v deviates from pure %v", pure.Label, basic.MeanReachTimeSafe, pure.MeanReachTimeSafe)
		}
		if !math.IsNaN(pure.EmergencyFreq) {
			t.Error("pure row should have no emergency frequency")
		}
		if math.IsNaN(ult.EmergencyFreq) || ult.EmergencyFreq <= basic.EmergencyFreq {
			t.Errorf("%s: ultimate emergency %v should exceed basic %v",
				pure.Label, ult.EmergencyFreq, basic.EmergencyFreq)
		}
		if !math.IsNaN(ult.Winning) {
			t.Error("ultimate row should have no winning percentage")
		}
		if math.IsNaN(pure.Winning) || pure.Winning < 0 || pure.Winning > 1 {
			t.Errorf("pure winning = %v", pure.Winning)
		}
	}
	// Degradation ordering across settings: none ≤ delayed ≤ lost for the
	// ultimate design's reaching time.
	if u := [3]float64{cells[0][2].MeanReachTimeSafe, cells[1][2].MeanReachTimeSafe, cells[2][2].MeanReachTimeSafe}; !(u[0] <= u[1]+0.05 && u[1] <= u[2]+0.05) {
		t.Errorf("ultimate degradation ordering violated: %v / %v / %v", u[0], u[1], u[2])
	}
}

func TestTableAggressiveShape(t *testing.T) {
	for _, c := range triples(t, studyRows(t, "table2", testN)) {
		pure, basic, ult := c[0], c[1], c[2]
		// Paper shape: the pure aggressive planner is substantially unsafe;
		// both compound designs are 100% safe.
		if pure.SafeRate() > 0.9 {
			t.Errorf("%s: pure aggressive safe rate %v too high", pure.Label, pure.SafeRate())
		}
		if basic.SafeRate() != 1 || ult.SafeRate() != 1 {
			t.Errorf("%s: compound safe rates %v / %v", pure.Label, basic.SafeRate(), ult.SafeRate())
		}
		// Pure is fastest when safe (it just floors it).
		if pure.MeanReachTimeSafe >= basic.MeanReachTimeSafe {
			t.Errorf("%s: pure %v not faster than basic %v", pure.Label, pure.MeanReachTimeSafe, basic.MeanReachTimeSafe)
		}
		// Mean η of the pure design suffers from the collisions.
		if pure.MeanEta >= ult.MeanEta {
			t.Errorf("%s: pure η %v should trail ultimate %v", pure.Label, pure.MeanEta, ult.MeanEta)
		}
	}
}

func TestSweepTransmissionShape(t *testing.T) {
	pts := triples(t, studyRows(t, "5a", 60))
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if first[0].X != 0.05 || last[0].X != 1.0 {
		t.Fatalf("x range [%v, %v]", first[0].X, last[0].X)
	}
	// Ultimate stays below pure everywhere; reaching time degrades with the
	// period for the ultimate design.
	for _, pt := range pts {
		if pt[2].MeanReachTimeSafe >= pt[0].MeanReachTimeSafe {
			t.Errorf("x=%v: ultimate %v not below pure %v", pt[0].X, pt[2].MeanReachTimeSafe, pt[0].MeanReachTimeSafe)
		}
		if pt[2].SafeRate() != 1 || pt[1].SafeRate() != 1 {
			t.Errorf("x=%v: compound unsafe", pt[0].X)
		}
	}
	if last[2].MeanReachTimeSafe <= first[2].MeanReachTimeSafe {
		t.Errorf("ultimate reach should degrade with the period: %v → %v", first[2].MeanReachTimeSafe, last[2].MeanReachTimeSafe)
	}
}

func TestSweepDropShape(t *testing.T) {
	pts := triples(t, studyRows(t, "5c", 60))
	if len(pts) != 20 || pts[0][0].X != 0 || math.Abs(pts[19][0].X-0.95) > 1e-9 {
		t.Fatalf("drop sweep x values wrong: %v … %v", pts[0][0].X, pts[len(pts)-1][0].X)
	}
	for _, pt := range pts {
		if pt[2].MeanReachTimeSafe >= pt[0].MeanReachTimeSafe {
			t.Errorf("pd=%v: ultimate %v not below pure %v", pt[0].X, pt[2].MeanReachTimeSafe, pt[0].MeanReachTimeSafe)
		}
	}
}

func TestSweepSensorShape(t *testing.T) {
	pts := triples(t, studyRows(t, "5e", 60))
	if len(pts) != 20 || pts[0][0].X != 1 || math.Abs(pts[19][0].X-4.8) > 1e-9 {
		t.Fatalf("sensor sweep x values wrong: %v … %v", pts[0][0].X, pts[len(pts)-1][0].X)
	}
	// Reaching time grows with sensor uncertainty for every design.
	if pts[19][2].MeanReachTimeSafe <= pts[0][2].MeanReachTimeSafe {
		t.Errorf("ultimate should degrade with δ: %v → %v", pts[0][2].MeanReachTimeSafe, pts[19][2].MeanReachTimeSafe)
	}
	if pts[19][0].MeanReachTimeSafe <= pts[0][0].MeanReachTimeSafe {
		t.Errorf("pure should degrade with δ: %v → %v", pts[0][0].MeanReachTimeSafe, pts[19][0].MeanReachTimeSafe)
	}
}

func TestFilterTrace(t *testing.T) {
	samples, err := FilterTrace(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 100 {
		t.Fatalf("trace too short: %d", len(samples))
	}
	// After the transient, the filtered estimate must track the truth much
	// better than the raw measurements (Fig. 6a's message).
	var rawErr, filtErr float64
	n := 0
	for _, s := range samples {
		if s.T < 2 || math.IsNaN(s.MeasV) {
			continue
		}
		rawErr += (s.MeasV - s.TrueV) * (s.MeasV - s.TrueV)
		filtErr += (s.FilteredV - s.TrueV) * (s.FilteredV - s.TrueV)
		n++
	}
	if n == 0 {
		t.Fatal("no usable samples")
	}
	if filtErr >= rawErr*0.5 {
		t.Fatalf("filter did not clean the trace: raw=%v filt=%v", rawErr/float64(n), filtErr/float64(n))
	}
}

func TestWindowTrace(t *testing.T) {
	res, err := WindowTrace(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("empty window trace")
	}
	if math.IsNaN(res.RealEnter) || math.IsNaN(res.RealExit) {
		t.Fatalf("real passing times missing: %+v", res)
	}
	for _, s := range res.Samples {
		// Aggressive window inside conservative window (absolute times).
		if s.AggrEnter < s.ConsEnter-1e-6 {
			t.Fatalf("t=%v: aggressive enter %v before conservative %v", s.T, s.AggrEnter, s.ConsEnter)
		}
		if !math.IsInf(s.ConsExit, 1) && s.AggrExit > s.ConsExit+1e-6 {
			t.Fatalf("t=%v: aggressive exit %v after conservative %v", s.T, s.AggrExit, s.ConsExit)
		}
	}
	// Before the real entry, the conservative window's earliest-entry bound
	// must not postdate the real entry (sound estimate), with a step of
	// tolerance.  (After the entry the relative bound clamps to "now".)
	for _, s := range res.Samples {
		if s.T >= res.RealEnter {
			break
		}
		if s.ConsEnter > res.RealEnter+0.1 {
			t.Fatalf("t=%v: conservative enter %v after real %v", s.T, s.ConsEnter, res.RealEnter)
		}
	}
	// The aggressive entry estimate should approach the real entry time.
	lastIdx := len(res.Samples) - 1
	if gap := math.Abs(res.Samples[lastIdx].AggrEnter - res.RealEnter); gap > 1.5 {
		t.Fatalf("aggressive entry estimate far from reality near crossing: gap=%v", gap)
	}
}

func TestFilterRMSE(t *testing.T) {
	res, err := FilterRMSE(20, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectories != 20 {
		t.Fatalf("trajectories = %d", res.Trajectories)
	}
	// The filter must cut both RMSEs substantially (the paper reports
	// −69% position, −76% velocity).
	if res.PosReductionPercent < 30 {
		t.Errorf("position RMSE reduction only %.1f%%", res.PosReductionPercent)
	}
	if res.VelReductionPercent < 30 {
		t.Errorf("velocity RMSE reduction only %.1f%%", res.VelReductionPercent)
	}
	if res.PosAfter >= res.PosBefore || res.VelAfter >= res.VelBefore {
		t.Errorf("RMSE not reduced: %+v", res)
	}
}

func TestAblations(t *testing.T) {
	rows := studyRows(t, "ablation", testN)
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	full, okF := byName["full"]
	basic, okB := byName["basic"]
	noAggr, okA := byName["no-aggressive"]
	if !okF || !okB || !okA {
		t.Fatalf("missing variants: %+v", rows)
	}
	if full.SafeRate() != 1 || basic.SafeRate() != 1 {
		t.Fatalf("safety regressed in ablation: full=%v basic=%v", full.SafeRate(), basic.SafeRate())
	}
	// The full design must beat the basic design; dropping the aggressive
	// set must cost efficiency relative to full.
	if full.MeanReachTimeSafe >= basic.MeanReachTimeSafe {
		t.Errorf("full %v not faster than basic %v", full.MeanReachTimeSafe, basic.MeanReachTimeSafe)
	}
	if noAggr.MeanReachTimeSafe < full.MeanReachTimeSafe-0.05 {
		t.Errorf("removing the aggressive set should not speed things up: %v vs %v",
			noAggr.MeanReachTimeSafe, full.MeanReachTimeSafe)
	}
}

func TestStreamTable(t *testing.T) {
	rows := studyRows(t, "stream", 60)
	if len(rows) != 12 { // 4 stream sizes × 3 designs
		t.Fatalf("rows = %d", len(rows))
	}
	var pureSafe, ultReach []float64
	for _, r := range rows {
		switch r.Design {
		case PureNN:
			pureSafe = append(pureSafe, r.SafeRate())
			if r.SafeRate() > 0.95 {
				t.Errorf("%v vehicles: pure aggressive suspiciously safe (%v)", r.X, r.SafeRate())
			}
		default:
			if r.SafeRate() != 1 {
				t.Errorf("%v vehicles / %s: compound safe rate %v", r.X, r.Design, r.SafeRate())
			}
			if r.Design == Ultimate {
				ultReach = append(ultReach, r.MeanReachTimeSafe)
			}
		}
	}
	// The pure planner commits at t=0 and only ever meets the first
	// vehicle, so its safe rate is (correctly) flat in the stream size.
	for i := 1; i < len(pureSafe); i++ {
		if pureSafe[i] > pureSafe[i-1]+0.08 {
			t.Errorf("pure safe rate rose with more vehicles: %v", pureSafe)
		}
	}
	// A yielding compound planner must wait for more of the stream:
	// reaching time grows with the vehicle count.
	if ultReach[len(ultReach)-1] <= ultReach[0] {
		t.Errorf("ultimate reach time should grow with stream size: %v", ultReach)
	}
}

func TestCarFollowTable(t *testing.T) {
	cells := triples(t, studyRows(t, "carfollow", 60))
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		pure, basic, ult := c[0], c[1], c[2]
		if basic.SafeRate() != 1 || ult.SafeRate() != 1 {
			t.Errorf("%s: compound safe rates %v / %v", pure.Label, basic.SafeRate(), ult.SafeRate())
		}
		if ult.MeanReachTimeSafe > basic.MeanReachTimeSafe+1e-9 {
			t.Errorf("%s: ultimate %v slower than basic %v", pure.Label, ult.MeanReachTimeSafe, basic.MeanReachTimeSafe)
		}
	}
	// The tailgater must be unsafe in at least the noisiest setting.
	if lost := cells[2][0]; lost.SafeRate() >= 1 {
		t.Errorf("pure tailgater safe under lost comms: %v", lost.SafeRate())
	}
}
