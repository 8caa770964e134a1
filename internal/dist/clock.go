package dist

import "time"

// Clock is the package's single wall-clock seam.  Everything in
// internal/dist that needs time — lease expiry, heartbeat cadence,
// backoff sleeps, RPC deadlines — goes through a Clock, and this file is
// the only one allowed to touch the time package's clock functions
// (scripts/lint_determinism.sh enforces it).  Tests substitute a
// FakeClock and drive lease expiry and backoff schedules to the exact
// nanosecond, which is what makes the failure-mode tests deterministic
// instead of sleep-and-hope.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// After fires once after d (the select-friendly form of Sleep).
	After(d time.Duration) <-chan time.Time
}

// RealClock is the production Clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
