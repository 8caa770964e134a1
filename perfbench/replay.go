package main

import (
	"math/rand"
	"time"

	"safeplan/internal/comms"
	"safeplan/internal/dynamics"
	"safeplan/internal/fusion"
	"safeplan/internal/guard"
	"safeplan/internal/interval"
	"safeplan/internal/leftturn"
	"safeplan/internal/monitor"
	"safeplan/internal/sensor"
	"safeplan/internal/sim"
)

// replayBudget is the minimum time spent replaying each pure layer; the
// per-call figure is the median over repeats.
const replayBudget = 40 * time.Millisecond

// replay rebuilds the layers buried in the left-turn stepper from their
// public constructors and feeds them the traced episodes: the oncoming
// vehicle's true trajectory (Options.Trace samples) and the decorated
// agent's recorded (t, ego, Knowledge).
//
// Stateful layers (channel, fusion filter) are replayed in step order and
// timed per call, less the calibrated empty-interval clock cost.  Pure
// layers run as tight loops over all recorded inputs, timed as a whole.
func (ls *layerSuite) replay(o *outcome, cfg sim.Config, eps []recordedEpisode) map[string]layerCost {
	costs := map[string]layerCost{}
	var steps int64
	for _, ep := range eps {
		steps += int64(len(ep.trace))
	}

	// Channel and fusion, three passes; the median pass mean per call.
	type acc struct {
		ns    float64
		calls int64
	}
	names := []string{"comms.send_ns", "comms.poll_ns", "fusion.on_message_ns", "fusion.on_reading_ns", "fusion.estimate_ns"}
	passes := map[string][]float64{}
	var last map[string]acc
	var sent, delivered int64
	for pass := 0; pass < 3; pass++ {
		a := map[string]acc{}
		sent, delivered = 0, 0
		t0 := time.Now()
		for _, ep := range eps {
			s, d := ls.replayEpisode(o, cfg, ep, func(name string, ns float64) {
				x := a[name]
				x.ns += ns - ls.clk.empty
				x.calls++
				a[name] = x
			})
			sent += s
			delivered += d
		}
		ls.rc.tr.record(0, "replay.comms+fusion", t0, time.Since(t0), steps)
		for _, n := range names {
			passes[n] = append(passes[n], a[n].ns/float64(max(a[n].calls, 1)))
		}
		last = a
	}
	for _, n := range names {
		costs[n] = layerCost{ns: median(passes[n]), perStep: float64(last[n].calls) / float64(steps), calls: last[n].calls}
	}
	ls.sent = sent
	ls.deliveredFrac = float64(delivered) / float64(max(sent, 1))

	// Pure layers over the recorded agent inputs.
	sc := cfg.Scenario
	mon := monitor.New(sc)
	var egos []dynamics.State
	var ts []float64
	var wCons, wAggr []interval.Interval
	var sound []leftturn.OncomingEstimate
	var nonEmergency int64
	for _, ep := range eps {
		for _, c := range ep.calls {
			ts = append(ts, c.t)
			egos = append(egos, c.ego)
			wCons = append(wCons, sc.ConservativeWindow(c.k.Sound))
			wAggr = append(wAggr, sc.AggressiveWindow(c.k.Fused))
			sound = append(sound, c.k.Sound)
			if !c.emergency {
				nonEmergency++
			}
		}
	}
	n := len(ts)
	ls.nonEmergencyRate = float64(nonEmergency) / float64(steps)

	costs["monitor.assess_ns"] = ls.pure("monitor.assess", n, func() {
		for i := range egos {
			sink += mon.Assess(egos[i], wCons[i]).Floor
		}
	})
	feats := make([]float64, leftturn.FeatureCount)
	costs["leftturn.features_ns"] = ls.pure("leftturn.features", n, func() {
		for i := range egos {
			leftturn.FeaturesInto(feats, ts[i], egos[i], wAggr[i])
			sink += feats[0]
		}
	})
	nnp := clonePlanner(ls.models.cons)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, leftturn.FeatureCount)
		leftturn.FeaturesInto(x, ts[i], egos[i], wAggr[i])
		nnp.Norm.Apply(x)
		xs[i] = x
	}
	costs["nn.predict1_ns"] = ls.pure("nn.predict1", n, func() {
		for _, x := range xs {
			sink += nnp.Net.Predict1(x)
		}
	})
	box := make([]interval.Interval, leftturn.FeatureCount)
	costs["leftturn.featurebox_ns"] = ls.pure("leftturn.featurebox", n, func() {
		for i := range egos {
			sc.FeatureBoxInto(box, ts[i], egos[i], sound[i], true)
			sink += box[0].Lo
		}
	})
	boxes := make([][]interval.Interval, n)
	for i := range boxes {
		b := make([]interval.Interval, leftturn.FeatureCount)
		sc.FeatureBoxInto(b, ts[i], egos[i], sound[i], true)
		boxes[i] = b
	}
	prop := ls.models.consProp
	scr := prop.NewScratch()
	out := make([]interval.Interval, 1)
	costs["ibp.propagate_ns"] = ls.pure("ibp.propagate", n, func() {
		for _, b := range boxes {
			prop.PredictIntervalInto(out, b, scr)
			sink += out[0].Hi
		}
	})
	costs["guard.step_ns"] = ls.replayGuard(o, sc, eps)
	for _, name := range []string{"monitor.assess_ns", "leftturn.features_ns", "nn.predict1_ns", "leftturn.featurebox_ns", "ibp.propagate_ns", "guard.step_ns"} {
		c := costs[name]
		c.perStep = float64(c.calls) / float64(steps)
		costs[name] = c
	}
	return costs
}

// replayEpisode runs one traced episode's V2V and sensing traffic through
// a fresh channel, sensor and fusion filter, reporting each timed call.
// It returns the channel's sent and delivered counts.  A sound estimate
// that misses the true state is a correctness failure.
func (ls *layerSuite) replayEpisode(o *outcome, cfg sim.Config, ep recordedEpisode, observe func(name string, ns float64)) (sent, delivered int64) {
	rng := rand.New(rand.NewSource(ep.seed))
	ch, err := comms.NewChannel(cfg.Comms, rng)
	if err != nil {
		o.fail(1, "replay channel: %v", err)
		return 0, 0
	}
	sens, err := sensor.New(cfg.Sensor, rng)
	if err != nil {
		o.fail(1, "replay sensor: %v", err)
		return 0, 0
	}
	f, err := fusion.New(fusion.Config{
		Limits: cfg.Scenario.Oncoming, Sensor: cfg.Sensor,
		UseKalman: cfg.InfoFilter, Replay: cfg.InfoFilter && !cfg.NoReplay,
	})
	if err != nil {
		o.fail(1, "replay fusion: %v", err)
		return 0, 0
	}
	s0 := ep.trace[0]
	f.InitExact(0, dynamics.State{P: s0.OncP, V: s0.OncV}, 0)
	msgTick, sensTick := comms.MakeTicker(cfg.DtM), comms.MakeTicker(cfg.DtS)
	msgTick.Due(0)
	sensTick.Due(0)
	buf := make([]comms.Message, 0, 8)
	misses := 0
	for _, s := range ep.trace {
		truth := dynamics.State{P: s.OncP, V: s.OncV}
		if at, ok := msgTick.Due(s.T); ok {
			m := comms.Message{Sender: 1, T: at, P: s.OncP, V: s.OncV, A: s.OncA}
			t0 := time.Now()
			ch.Send(m)
			observe("comms.send_ns", float64(time.Since(t0).Nanoseconds()))
		}
		t0 := time.Now()
		buf = ch.PollAppend(s.T, buf[:0])
		observe("comms.poll_ns", float64(time.Since(t0).Nanoseconds()))
		for _, m := range buf {
			t0 := time.Now()
			f.OnMessage(m)
			observe("fusion.on_message_ns", float64(time.Since(t0).Nanoseconds()))
		}
		if at, ok := sensTick.Due(s.T); ok {
			r := sens.Measure(1, at, truth, s.OncA)
			t0 := time.Now()
			f.OnReading(r)
			observe("fusion.on_reading_ns", float64(time.Since(t0).Nanoseconds()))
		}
		t0 = time.Now()
		est := f.EstimateAt(s.T)
		observe("fusion.estimate_ns", float64(time.Since(t0).Nanoseconds()))
		if !est.SoundP.Contains(truth.P) || !est.SoundV.Contains(truth.V) {
			misses++
		}
	}
	if misses > 0 {
		o.fail(1, "replay seed %d: sound estimate missed the true state at %d steps", ep.seed, misses)
	}
	st, _, dl := ch.Stats()
	return int64(st), int64(dl)
}

// pure times body (n calls) repeatedly for at least replayBudget and five
// repeats, returning the median per-call time.
func (ls *layerSuite) pure(name string, n int, body func()) layerCost {
	var per []float64
	start := time.Now()
	for rep := 0; rep < 5 || time.Since(start) < replayBudget; rep++ {
		t0 := time.Now()
		body()
		d := time.Since(t0)
		ls.rc.tr.record(0, "replay."+name, t0, d, int64(n))
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return layerCost{ns: median(per), calls: int64(n)}
}

// replayGuard feeds the recorded commands through a fresh guard per
// episode, with the monitor envelope and κ_e precomputed.  Recorded
// commands are valid, so any contained fault is a correctness failure.
func (ls *layerSuite) replayGuard(o *outcome, sc leftturn.Config, eps []recordedEpisode) layerCost {
	mon := monitor.New(sc)
	type stepIn struct {
		a, e   float64
		em, ok bool
		lo, hi float64
	}
	ins := make([][]stepIn, len(eps))
	n := 0
	for k, ep := range eps {
		for _, c := range ep.calls {
			lo, hi, ok := mon.Assess(c.ego, sc.ConservativeWindow(c.k.Sound)).Envelope(sc.Ego)
			ins[k] = append(ins[k], stepIn{a: c.accel, e: sc.EmergencyAccel(c.ego), em: c.emergency, ok: ok, lo: lo, hi: hi})
		}
		n += len(ep.calls)
	}
	gc := guard.DefaultConfig(sc.Ego)
	var faults int
	cost := ls.pure("guard.step", n, func() {
		faults = 0
		for _, steps := range ins {
			g, err := guard.New(gc)
			if err != nil {
				panic(err) // DefaultConfig over valid limits always validates
			}
			var cur stepIn
			plan := func() (float64, bool) { return cur.a, cur.em }
			emerg := func() float64 { return cur.e }
			env := func() (float64, float64, bool) { return cur.lo, cur.hi, cur.ok }
			for _, in := range steps {
				cur = in
				a, _, _ := g.Step(plan, emerg, nil, env)
				sink += a
			}
			faults += g.Stats().Faults
		}
	})
	if faults > 0 {
		o.fail(int64(faults), "guard replay: %d faults on recorded commands", faults)
	}
	return cost
}
