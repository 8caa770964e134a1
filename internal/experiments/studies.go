package experiments

import (
	"fmt"

	"safeplan/internal/campaign"
	"safeplan/internal/carfollow"
	"safeplan/internal/comms"
	"safeplan/internal/core"
	"safeplan/internal/disturb"
	"safeplan/internal/monitor"
	"safeplan/internal/planner"
	"safeplan/internal/platoon"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
	"safeplan/internal/textio"
)

// Studies returns every study of the evaluation, in the order
// cmd/figures -fig all writes them, with pl as κ_n.  The Fig. 5 sweeps
// and the ablations run the conservative κ_n (Fig. 5 caption); the
// stream and worst-case studies the aggressive one, whose collision risk
// the compound design has to contain.  The car-following and platoon
// studies run their own scenario's aggressive expert.
func Studies(pl Planners) []Study {
	transmission := sweep(pl.Cons, points(1, 20, func(j float64) float64 { return 0.05 * j }), func(x float64) sim.Config {
		cfg := SettingConfig(StandardSettings()[0])
		cfg.DtM, cfg.DtS = x, x
		return cfg
	})
	drop := sweep(pl.Cons, points(0, 19, func(j float64) float64 { return 0.05 * j }), func(x float64) sim.Config {
		return SettingConfig(Setting{Comms: comms.Delayed(DelayedDelay, x), Sensor: sensor.Uniform(1)})
	})
	sensing := sweep(pl.Cons, points(0, 19, func(j float64) float64 { return 1 + 0.2*j }), func(x float64) sim.Config {
		return SettingConfig(Setting{Comms: comms.Lost(), Sensor: sensor.Uniform(x)})
	})
	return []Study{
		{ID: "table1", Title: fmt.Sprintf("Table I: conservative κ_n  (n=%%d per cell, κ_n=%s)", pl.Cons.Name()),
			Campaign: paperTable(pl.Cons), Columns: tableColumns},
		{ID: "table2", Title: fmt.Sprintf("Table II: aggressive κ_n  (n=%%d per cell, κ_n=%s)", pl.Aggr.Name()),
			Campaign: paperTable(pl.Aggr), Columns: tableColumns},
		{ID: "5a", Title: "Fig. 5a: reaching time vs transmission time step  (n=%d per point)",
			Campaign: transmission, Chart: reachChart("dt_m=dt_s [s]")},
		{ID: "5b", Title: "Fig. 5b: emergency frequency vs transmission time step  (n=%d per point)",
			Campaign: transmission, Chart: emergencyChart("dt_m=dt_s [s]")},
		{ID: "5c", Title: "Fig. 5c: reaching time vs message drop probability  (n=%d per point)",
			Campaign: drop, Chart: reachChart("p_d")},
		{ID: "5d", Title: "Fig. 5d: emergency frequency vs message drop probability  (n=%d per point)",
			Campaign: drop, Chart: emergencyChart("p_d")},
		{ID: "5e", Title: "Fig. 5e: reaching time vs sensor uncertainty  (n=%d per point)",
			Campaign: sensing, Chart: reachChart("delta")},
		{ID: "5f", Title: "Fig. 5f: emergency frequency vs sensor uncertainty  (n=%d per point)",
			Campaign: sensing, Chart: emergencyChart("delta")},
		{ID: "6a", Title: "Fig. 6a: measured vs filtered velocity (sensors only, δ=3)", Trace: filterTraceTable},
		{ID: "6b", Title: "Fig. 6b: passing-window estimates (real passing: %.2f–%.2f s)", Trace: windowTraceTable},
		{ID: "rmse", Title: "§V-C RMSE study (%d trajectories, sensors only, δ=2)", Trace: rmseTable},
		{ID: "ablation", Title: "Ablations (messages delayed, conservative κ_n, n=%d)",
			Campaign: ablations(pl.Cons), Columns: []Column{designCol("variant"), reachCol, safeCol, etaCol, emergencyCol}},
		{ID: "stream", Title: "Multi-vehicle extension: oncoming stream, messages delayed, aggressive κ_n (n=%d)",
			Campaign: streams(pl.Aggr), Columns: []Column{vehiclesCol, designCol("planner"), reachCol, safeCol, etaCol, emergencyCol}},
		{ID: "carfollow", Title: "Car-following case study (§II-A unsafe set), aggressive κ_n (n=%d)",
			Campaign: carFollowing(), Columns: []Column{labelCol("settings"), designCol("planner"), reachCol, safeCol, etaCol, emergencyCol}},
		{ID: "platoon", Title: "Platoon extension: chained V2V links, ultimate aggressive κ_n (n=%d)",
			Campaign: platoons(), Columns: []Column{labelCol("setting"), vehiclesCol, safeCol, etaCol, emergencyCol,
				{"min link gap", func(r Row) string { return textio.F(r.MinLinkGap, 2) }},
				{"max amplification", func(r Row) string { return textio.F(r.MaxAmp, 3) }}}},
		{ID: "burst", Title: "Burst-loss sweep: reaching time vs mean burst length (Gilbert–Elliott)  (n=%d per point)",
			Campaign: sweep(pl.Cons, points(1, 10, func(j float64) float64 { return j }), burstLoss), Chart: reachChart("mean burst [msgs]")},
		{ID: "worstcase", Title: "Worst-case disturbance table, aggressive κ_n (n=%d)",
			Campaign: worstCase(pl.Aggr), Columns: []Column{labelCol("setting"), designCol("planner"), reachCol, safeCol, etaCol, emergencyCol}},
	}
}

// The table columns the studies share.
var (
	reachCol     = Column{"reaching time", func(r Row) string { return textio.F(r.MeanReachTimeSafe, 3) + "s" }}
	safeCol      = Column{"safe rate", func(r Row) string { return textio.Pct(r.SafeRate()) }}
	etaCol       = Column{"η value", func(r Row) string { return textio.F(r.MeanEta, 3) }}
	emergencyCol = Column{"emergency freq", func(r Row) string { return textio.Pct(r.EmergencyFreq) }}
	vehiclesCol  = Column{"vehicles", func(r Row) string { return textio.F(r.X, 0) }}

	tableColumns = []Column{labelCol("settings"), designCol("planner"), reachCol, safeCol, etaCol,
		{"winning %", func(r Row) string { return textio.Pct(r.Winning) }}, emergencyCol}
)

func labelCol(header string) Column {
	return Column{header, func(r Row) string { return r.Label }}
}

func designCol(header string) Column {
	return Column{header, func(r Row) string { return r.Design }}
}

func reachChart(xLabel string) *Chart {
	return &Chart{xLabel, func(r Row) float64 { return r.MeanReachTimeSafe }}
}

func emergencyChart(xLabel string) *Chart {
	return &Chart{xLabel, func(r Row) float64 { return r.EmergencyFreq }}
}

// compare returns the pure, basic and ultimate designs of one scenario
// family: episode runs an agent on the family's configuration with the
// information filter on or off, and only the ultimate design has it on.
func compare[A interface{ Name() string }](episode func(agent A, infoFilter bool) campaign.EpisodeFunc, pure, basic, ultimate A) []Design {
	return []Design{
		{PureNN, pure.Name(), episode(pure, false)},
		{Basic, basic.Name(), episode(basic, false)},
		{Ultimate, ultimate.Name(), episode(ultimate, true)},
	}
}

// leftTurn compares the left-turn designs built around κ_n p on base.
func leftTurn(base sim.Config, p planner.Planner) []Design {
	sc := base.Scenario
	return compare[core.Agent](func(a core.Agent, info bool) campaign.EpisodeFunc {
		cfg := base
		cfg.InfoFilter = info
		return campaign.LeftTurn(cfg, a)
	}, &core.PureNN{Cfg: sc, Planner: p}, core.NewBasic(sc, p), core.NewUltimate(sc, p))
}

// paperTable is Table I (p = κ_n,cons) or Table II (p = κ_n,aggr): the
// three designs under each communication setting.
func paperTable(p planner.Planner) *Campaign {
	c := &Campaign{Paired: true}
	for _, s := range StandardSettings() {
		c.Cells = append(c.Cells, Cell{Label: s.Name, Designs: leftTurn(SettingConfig(s), p)})
	}
	return c
}

// worstCase is the adversarial companion of Table I/II: the three
// designs under every AdversarialSetting.  The safety guarantee predicts
// a safe rate of 1 for the basic and ultimate rows under every
// disturbance (the monitor only relies on the sound estimate, which all
// channel models preserve).
func worstCase(p planner.Planner) *Campaign {
	c := &Campaign{Paired: true}
	for _, s := range AdversarialSettings() {
		c.Cells = append(c.Cells, Cell{Label: s.Name, Designs: leftTurn(adversarialSim(s), p)})
	}
	return c
}

// points returns f(j) for j = lo … hi.
func points(lo, hi int, f func(j float64) float64) []float64 {
	var xs []float64
	for j := lo; j <= hi; j++ {
		xs = append(xs, f(float64(j)))
	}
	return xs
}

// sweep compares the left-turn designs around κ_n p on the configuration
// at each x.
func sweep(p planner.Planner, xs []float64, at func(x float64) sim.Config) *Campaign {
	c := &Campaign{}
	for _, x := range xs {
		c.Cells = append(c.Cells, Cell{X: x, Designs: leftTurn(at(x), p)})
	}
	return c
}

// burstLoss extends the Fig. 5 family with a burst-loss axis: a
// Gilbert–Elliott channel with 10% entry probability, total loss in the
// bad state and a mean burst of x message periods.  At x = 1 the channel
// degenerates to near-i.i.d. loss; growing x holds the entry rate fixed
// while stretching each outage, so the stationary loss rate rises with
// the burst length.
func burstLoss(x float64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Sensor = sensor.Uniform(LostSensorDelta)
	cfg.Comms = comms.Disturbed(disturb.GilbertElliott{
		PGoodBad: 0.1,
		PBadGood: 1 / x,
		DropBad:  1,
		Delay:    DelayedDelay,
	})
	return cfg
}

// ablations varies the ultimate compound planner around κ_n p under the
// "messages delayed" setting (DESIGN.md §6):
//
//	full            — information filter + aggressive set (the ultimate design)
//	no-filter       — aggressive set but no Kalman component
//	no-aggressive   — information filter but conservative κ_n input
//	no-replay       — information filter without message rollback/replay
//	fused-monitor   — the paper's literal design: the monitor consumes the
//	                  Kalman-joined estimate instead of the sound one
//	basic           — neither technique (the basic compound design)
func ablations(p planner.Planner) *Campaign {
	base := SettingConfig(StandardSettings()[1])
	sc := base.Scenario
	variant := func(name string, infoFilter, noReplay, aggressive, fusedMonitor bool) Design {
		cfg := base
		cfg.InfoFilter = infoFilter
		cfg.NoReplay = noReplay
		agent := &core.Compound{
			Cfg:            sc,
			Planner:        p,
			Monitor:        monitor.New(sc),
			AggressiveSet:  aggressive,
			MonitorOnFused: fusedMonitor,
		}
		return Design{name, agent.Name(), campaign.LeftTurn(cfg, agent)}
	}
	return &Campaign{Cells: []Cell{{Label: "messages delayed", Designs: []Design{
		variant("full", true, false, true, false),
		variant("no-filter", false, false, true, false),
		variant("no-aggressive", true, false, false, false),
		variant("no-replay", true, true, true, false),
		variant("fused-monitor", true, false, true, true),
		variant("basic", false, false, false, false),
	}}}}
}

// streams extends the paper's single-vehicle evaluation to its own
// multi-vehicle system model (§II-A): the three designs around κ_n p
// against oncoming streams of 1–4 vehicles under the "messages delayed"
// setting.  With the aggressive κ_n the collision risk compounds per
// vehicle.
func streams(p planner.Planner) *Campaign {
	c := &Campaign{}
	delayed := StandardSettings()[1]
	for vehicles := 1; vehicles <= 4; vehicles++ {
		base := sim.DefaultMultiConfig()
		base.Comms = delayed.Comms
		base.Sensor = delayed.Sensor
		base.Vehicles = vehicles
		sc := base.Scenario
		c.Cells = append(c.Cells, Cell{X: float64(vehicles), Designs: compare[core.MultiAgent](
			func(a core.MultiAgent, info bool) campaign.EpisodeFunc {
				cfg := base
				cfg.InfoFilter = info
				return campaign.MultiVehicle(cfg, a)
			}, &core.MultiPure{Cfg: sc, Planner: p}, core.NewMultiBasic(sc, p), core.NewMultiUltimate(sc, p))})
	}
	return c
}

// carFollowing is the second case study (paper §II-A's distance-gap
// unsafe set): the three designs around the aggressive tailgating κ_n
// under the three communication settings, showing that the framework
// generalizes beyond the left turn.
func carFollowing() *Campaign {
	sc := carfollow.DefaultConfig()
	aggr := carfollow.AggressiveExpert(sc)
	c := &Campaign{}
	for _, s := range StandardSettings() {
		base := carfollow.DefaultSimConfig()
		base.Comms = s.Comms
		base.Sensor = s.Sensor
		c.Cells = append(c.Cells, Cell{Label: s.Name, Designs: compare[carfollow.Agent](
			func(a carfollow.Agent, info bool) campaign.EpisodeFunc {
				cfg := base
				cfg.InfoFilter = info
				return campaign.CarFollow(cfg, a)
			}, &carfollow.Pure{Cfg: sc, Planner: aggr}, carfollow.NewBasic(sc, aggr), carfollow.NewUltimate(sc, aggr))})
	}
	return c
}

// platoons is the N-vehicle chained-link platoon under the ultimate
// design with the aggressive κ_n: first a chain-length sweep under the
// "messages delayed" setting, then, at a fixed four-vehicle chain, the
// burst preset rotated over each individual link, the disturbance
// geometry the per-link channel design exists for.  A cell's x is its
// chain length.
func platoons() *Campaign {
	c := &Campaign{}
	add := func(label string, cfg platoon.SimConfig) {
		sc := cfg.LinkScenario()
		agent := carfollow.NewUltimate(sc, carfollow.AggressiveExpert(sc))
		c.Cells = append(c.Cells, Cell{Label: label, X: float64(cfg.Vehicles),
			Designs: []Design{{Ultimate, agent.Name(), campaign.Platoon(cfg, agent)}}})
	}
	delayed := StandardSettings()[1]
	for _, vehicles := range []int{2, 3, 4, 6} {
		cfg := platoon.DefaultSimConfig()
		cfg.Vehicles = vehicles
		cfg.Comms = delayed.Comms
		cfg.Sensor = delayed.Sensor
		cfg.InfoFilter = true
		add(fmt.Sprintf("delayed all links, N=%d", vehicles), cfg)
	}
	burst := comms.Disturbed(mustPreset("burst"))
	for link := 0; link < 3; link++ {
		cfg := platoon.DefaultSimConfig() // four vehicles, three links
		cfg.InfoFilter = true
		lc := make([]comms.Config, cfg.Vehicles-1)
		for l := range lc {
			lc[l] = comms.NoDisturbance()
		}
		lc[link] = burst
		cfg.LinkComms = lc
		add(fmt.Sprintf("burst on link %d, N=4", link), cfg)
	}
	return c
}

// rmseTrajectories is the sample size of the §V-C RMSE study.
const rmseTrajectories = 200

// stride subsamples a trace of n rows to about limit rows for the
// terminal; CSV gets every row.
func stride(n, limit int, csv bool) int {
	if csv || n <= limit {
		return 1
	}
	return n / limit
}

func filterTraceTable(seed int64, csv bool) (*textio.Table, []any, error) {
	samples, err := FilterTrace(seed)
	if err != nil {
		return nil, nil, err
	}
	tb := textio.NewTable("t", "true_v", "measured_v", "filtered_v")
	for i := 0; i < len(samples); i += stride(len(samples), 60, csv) {
		s := samples[i]
		tb.AddRow(textio.F(s.T, 2), textio.F(s.TrueV, 3), textio.F(s.MeasV, 3), textio.F(s.FilteredV, 3))
	}
	return tb, nil, nil
}

func windowTraceTable(seed int64, csv bool) (*textio.Table, []any, error) {
	res, err := WindowTrace(seed)
	if err != nil {
		return nil, nil, err
	}
	tb := textio.NewTable("t", "cons_enter", "cons_exit", "aggr_enter", "aggr_exit")
	for i := 0; i < len(res.Samples); i += stride(len(res.Samples), 40, csv) {
		s := res.Samples[i]
		tb.AddRow(textio.F(s.T, 2), textio.F(s.ConsEnter, 2), textio.F(s.ConsExit, 2),
			textio.F(s.AggrEnter, 2), textio.F(s.AggrExit, 2))
	}
	return tb, []any{res.RealEnter, res.RealExit}, nil
}

func rmseTable(seed int64, _ bool) (*textio.Table, []any, error) {
	res, err := FilterRMSE(rmseTrajectories, seed)
	if err != nil {
		return nil, nil, err
	}
	tb := textio.NewTable("quantity", "raw RMSE", "filtered RMSE", "reduction")
	tb.AddRow("position", textio.F(res.PosBefore, 4), textio.F(res.PosAfter, 4),
		textio.F(res.PosReductionPercent, 1)+"%")
	tb.AddRow("velocity", textio.F(res.VelBefore, 4), textio.F(res.VelAfter, 4),
		textio.F(res.VelReductionPercent, 1)+"%")
	return tb, []any{res.Trajectories}, nil
}
