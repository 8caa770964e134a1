package comms

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"safeplan/internal/disturb"
)

func newCh(t *testing.T, cfg Config, seed int64) *Channel {
	t.Helper()
	ch, err := NewChannel(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewChannel: %v", err)
	}
	return ch
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Delay: -1}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
	if err := (Config{DropProb: 1.5}).Validate(); err == nil {
		t.Error("drop probability > 1 accepted")
	}
	if err := (Config{DropProb: -0.1}).Validate(); err == nil {
		t.Error("negative drop probability accepted")
	}
	if err := NoDisturbance().Validate(); err != nil {
		t.Errorf("NoDisturbance invalid: %v", err)
	}
	if err := Delayed(0.25, 0.5).Validate(); err != nil {
		t.Errorf("Delayed invalid: %v", err)
	}
}

func TestNewChannelRejectsNilRNG(t *testing.T) {
	if _, err := NewChannel(NoDisturbance(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestPerfectDeliveryImmediate(t *testing.T) {
	ch := newCh(t, NoDisturbance(), 1)
	ch.Send(Message{Sender: 1, T: 0.5, P: 10})
	got := ch.Poll(0.5)
	if len(got) != 1 || got[0].P != 10 {
		t.Fatalf("Poll = %v", got)
	}
	if len(ch.Poll(1)) != 0 {
		t.Fatal("message delivered twice")
	}
}

func TestDelayHoldsMessage(t *testing.T) {
	ch := newCh(t, Delayed(0.25, 0), 1)
	ch.Send(Message{T: 1.0, V: 7})
	if got := ch.Poll(1.2); len(got) != 0 {
		t.Fatalf("message delivered before delay elapsed: %v", got)
	}
	got := ch.Poll(1.25)
	if len(got) != 1 || got[0].V != 7 {
		t.Fatalf("Poll after delay = %v", got)
	}
}

func TestLostDropsEverything(t *testing.T) {
	ch := newCh(t, Lost(), 1)
	for i := 0; i < 100; i++ {
		ch.Send(Message{T: float64(i)})
	}
	if got := ch.Poll(math.Inf(1)); len(got) != 0 {
		t.Fatalf("lost channel delivered %d messages", len(got))
	}
	sent, dropped, delivered := ch.Stats()
	if sent != 100 || dropped != 100 || delivered != 0 {
		t.Fatalf("stats = %d/%d/%d", sent, dropped, delivered)
	}
}

func TestDropProbabilityRoughlyRespected(t *testing.T) {
	const n = 20000
	ch := newCh(t, Delayed(0, 0.3), 42)
	for i := 0; i < n; i++ {
		ch.Send(Message{T: float64(i)})
	}
	_, dropped, _ := ch.Stats()
	rate := float64(dropped) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("empirical drop rate %.3f, want ≈0.30", rate)
	}
}

func TestPollOrderAndPartialDrain(t *testing.T) {
	ch := newCh(t, Delayed(0.5, 0), 1)
	for i := 0; i < 5; i++ {
		ch.Send(Message{T: float64(i), P: float64(i)})
	}
	got := ch.Poll(2.5) // delivers T=0,1,2 (deliverAt 0.5,1.5,2.5)
	if len(got) != 3 {
		t.Fatalf("Poll delivered %d messages, want 3", len(got))
	}
	for i, m := range got {
		if m.P != float64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	if ch.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", ch.Pending())
	}
	rest := ch.Poll(math.Inf(1))
	if len(rest) != 2 || rest[0].P != 3 || rest[1].P != 4 {
		t.Fatalf("remaining = %v", rest)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() []int {
		ch := newCh(t, Delayed(0.1, 0.5), 99)
		var pattern []int
		for i := 0; i < 50; i++ {
			ch.Send(Message{T: float64(i)})
			sent, dropped, _ := ch.Stats()
			pattern = append(pattern, sent-dropped)
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("channel not deterministic for equal seeds")
		}
	}
}

func TestModelValidatedByConfig(t *testing.T) {
	if err := (Config{Model: disturb.IID{DropProb: 2}}).Validate(); err == nil {
		t.Fatal("invalid disturbance model accepted")
	}
	if err := Disturbed(disturb.GilbertElliott{DropBad: 1}).Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
}

func TestModelDrivesChannel(t *testing.T) {
	// A blackout model must drop everything regardless of the legacy
	// fields.
	ch := newCh(t, Disturbed(disturb.Blackout{}), 1)
	for i := 0; i < 20; i++ {
		ch.Send(Message{T: float64(i)})
	}
	if got := ch.Poll(math.Inf(1)); len(got) != 0 {
		t.Fatalf("blackout delivered %d messages", len(got))
	}
}

func TestModelJitterDeliversInArrivalOrder(t *testing.T) {
	ch := newCh(t, Disturbed(disturb.Jitter{Base: 0.05, Spread: 0.6}), 3)
	const n = 200
	for i := 0; i < n; i++ {
		ch.Send(Message{T: float64(i) * 0.1, P: float64(i)})
	}
	got := ch.Poll(math.Inf(1))
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	// Jitter must actually reorder: some message must arrive after a
	// fresher one.
	reordered := false
	for i := 1; i < len(got); i++ {
		if got[i].T < got[i-1].T {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Fatal("jitter channel delivered in send order — no reordering")
	}
}

func TestModelReplayDeliversStaleDuplicates(t *testing.T) {
	ch := newCh(t, Disturbed(disturb.Replay{Prob: 1, ExtraMin: 0.5, ExtraMax: 0.5}), 1)
	ch.Send(Message{T: 1, P: 10})
	ch.Send(Message{T: 2, P: 20})
	if ch.Replayed() != 2 {
		t.Fatalf("Replayed = %d, want 2", ch.Replayed())
	}
	got := ch.Poll(math.Inf(1))
	// Originals at 1, 2 plus duplicates at 1.5, 2.5 → T order 1, 1, 2, 2.
	if len(got) != 4 {
		t.Fatalf("delivered %d messages, want 4", len(got))
	}
	if got[1].T != 1 || got[2].T != 2 {
		t.Fatalf("delivery order %v", got)
	}
	// The duplicate of T=1 arrives at 1.5 — by then fresher traffic
	// (T=2 at 2.0) is still pending, but against a polled filter the
	// T=1 copy is stale on arrival after the first original.
}

// TestDropSweepLeavesDelaysUntouched covers the split-RNG fix at the
// channel level: two channels with the same seed but different drop
// probabilities must assign identical latencies to each sent message.
func TestDropSweepLeavesDelaysUntouched(t *testing.T) {
	arrivals := func(dropProb float64) map[float64]float64 {
		m := disturb.Jitter{Base: 0.05, Spread: 0.4, TailProb: 0.2, TailMean: 0.5, DropProb: dropProb}
		ch := newCh(t, Disturbed(m), 77)
		for i := 0; i < 300; i++ {
			ch.Send(Message{T: float64(i) * 0.1})
		}
		out := map[float64]float64{}
		for _, pd := range ch.queue {
			out[pd.msg.T] = pd.deliverAt
		}
		return out
	}
	a, b := arrivals(0), arrivals(0.6)
	if len(b) >= len(a) {
		t.Fatal("higher drop probability did not drop more messages")
	}
	for tm, at := range b {
		if a[tm] != at {
			t.Fatalf("message T=%v: delay changed across drop sweep (%v vs %v)", tm, a[tm], at)
		}
	}
}

func TestTickerFiresAtMultiples(t *testing.T) {
	tk := NewTicker(0.1)
	var fired []float64
	for step := 0; step <= 10; step++ {
		now := float64(step) * 0.05
		for {
			at, ok := tk.Due(now)
			if !ok {
				break
			}
			fired = append(fired, at)
		}
	}
	want := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if math.Abs(fired[i]-want[i]) > 1e-9 {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestTickerToleratesFloatDrift(t *testing.T) {
	tk := NewTicker(0.1)
	// Accumulate 0.05 naively; 0.1 multiples won't be exact.
	now := 0.0
	count := 0
	for i := 0; i < 200; i++ {
		for {
			if _, ok := tk.Due(now); !ok {
				break
			}
			count++
		}
		now += 0.05
	}
	// now ends near 10.0 → ticks at 0, 0.1, …, 9.9(+last) ⇒ 100 ticks ±1.
	if count < 99 || count > 101 {
		t.Fatalf("tick count = %d, want ≈100", count)
	}
}

func TestTickerNeverFiresNonPositive(t *testing.T) {
	tk := NewTicker(0)
	if _, ok := tk.Due(100); ok {
		t.Fatal("zero-period ticker fired")
	}
}

func TestTickerReset(t *testing.T) {
	tk := NewTicker(1)
	tk.Due(0)
	tk.Due(1)
	tk.Reset()
	at, ok := tk.Due(0)
	if !ok || at != 0 {
		t.Fatal("Reset did not rewind ticker")
	}
}

// Property: with DropProb 0 and any delay, every sent message is eventually
// delivered exactly once, in timestamp order.
func TestQuickLosslessConservation(t *testing.T) {
	f := func(seed int64, delayRaw float64) bool {
		delay := math.Mod(math.Abs(delayRaw), 2)
		if math.IsNaN(delay) {
			delay = 0
		}
		ch, err := NewChannel(Config{Delay: delay}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		const n = 30
		for i := 0; i < n; i++ {
			ch.Send(Message{T: float64(i) * 0.1, P: float64(i)})
		}
		var got []Message
		for now := 0.0; now < 10; now += 0.05 {
			got = append(got, ch.Poll(now)...)
		}
		got = append(got, ch.Poll(math.Inf(1))...)
		if len(got) != n {
			return false
		}
		for i, m := range got {
			if m.P != float64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// episodeTrace drives ch through a 10 s episode at the 0.1 s message
// cadence, polling every 0.05 s, and returns each delivery (poll time,
// timestamp, payload) followed by the channel's counters.
func episodeTrace(ch *Channel) []float64 {
	var out []float64
	for i := 0; i < 200; i++ {
		now := float64(i) * 0.05
		if i%2 == 0 {
			ch.Send(Message{Sender: 1, T: now, P: float64(i)})
		}
		for _, m := range ch.Poll(now) {
			out = append(out, now, m.T, m.P)
		}
	}
	sent, dropped, delivered := ch.Stats()
	return append(out, float64(sent), float64(dropped), float64(delivered), float64(ch.Replayed()))
}

// TestResetMatchesFresh checks that a channel reset for a new episode
// delivers exactly what a fresh channel with the same seed delivers, for
// every disturb preset, both when the reset keeps the preset (its process
// is renewed in place) and when it switches from another preset, and that
// a reset that keeps the preset allocates nothing.
func TestResetMatchesFresh(t *testing.T) {
	names := disturb.PresetNames()
	cfgOf := func(name string) Config {
		m, err := disturb.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		return Disturbed(m)
	}
	for i, name := range names {
		cfg := cfgOf(name)
		want := episodeTrace(newCh(t, cfg, 7))
		for _, prev := range []string{name, names[(i+1)%len(names)]} {
			ch := newCh(t, cfgOf(prev), 3)
			episodeTrace(ch)
			if err := ch.Reset(cfg, rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			got := episodeTrace(ch)
			if len(got) != len(want) {
				t.Fatalf("%s after %s: reset channel traced %d values, fresh %d", name, prev, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s after %s: reset channel differs from a fresh one at value %d: %v vs %v", name, prev, k, got[k], want[k])
				}
			}
		}
		ch := newCh(t, cfg, 3)
		rng := rand.New(rand.NewSource(8))
		if avg := testing.AllocsPerRun(10, func() {
			if err := ch.Reset(cfg, rng); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: Reset with an unchanged model allocates %.1f times", name, avg)
		}
	}
}
