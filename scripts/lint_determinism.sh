#!/bin/sh
# Determinism hygiene for the simulation hot path.
#
# Episode results must be pure functions of the seed: the engine threads
# explicit *rand.Rand streams everywhere and keeps wall-clock reads out of
# the stepping loop (the guard's wall-clock watchdog, internal/guard, is
# the one deliberate exception and lives outside the checked packages).
# This check fails when someone introduces
#
#   - a math/rand *global* call (rand.Float64(), rand.Int63(), ...) —
#     global streams are shared mutable state and break seed pairing;
#   - a rand.NewSource call — math/rand's seeding costs ~12µs per stream
#     and dominated stepper set-up; streams are built with
#     xrand.New (or sim.Scratch.RNG), which draws the identical stream
#     and seeds several times faster; or
#   - a new time.Now in the stepping packages beyond the one known
#     telemetry latency probe (sim/engine.go, Engine.Decide: the shared
#     step skeleton behind the left turn, the oncoming stream, car
#     following and the platoon, behind a `coll != nil` check, so it
#     never runs in headless campaigns).
#
# If you add a legitimate telemetry probe, raise TIME_NOW_BUDGET in the
# same change and say why in the commit message.
set -eu
cd "$(dirname "$0")/.."

PKGS="internal/sim internal/platoon internal/carfollow internal/fusion internal/kalman internal/comms internal/reach internal/monitor internal/interval internal/sensor internal/traffic internal/disturb internal/faultinject"
# Budget 1: the planner-latency probe of the shared step skeleton, gated
# behind `coll != nil`.
TIME_NOW_BUDGET=1

fail=0

# Global math/rand calls: rand.X( where X is an exported identifier, minus
# the constructors (rand.New wraps explicit streams; rand.NewSource has
# its own check below).  Method calls on instances (rng.Float64()) do not
# match.
globals=$(grep -rnE '\brand\.[A-Z][A-Za-z]*\(' $PKGS --include='*.go' \
	| grep -v _test.go | grep -vE 'rand\.(New|NewSource)\(' || true)
if [ -n "$globals" ]; then
	echo "lint-determinism: global math/rand calls in stepping packages:" >&2
	echo "$globals" >&2
	fail=1
fi

# math/rand seeding: every stream goes through internal/xrand.
seeders=$(grep -rn 'rand\.NewSource(' $PKGS --include='*.go' | grep -v _test.go || true)
if [ -n "$seeders" ]; then
	echo "lint-determinism: rand.NewSource in stepping packages (use xrand.New):" >&2
	echo "$seeders" >&2
	fail=1
fi

# time.Now beyond the telemetry-probe budget.
nows=$(grep -rn 'time\.Now' $PKGS --include='*.go' | grep -v _test.go || true)
count=$(printf '%s' "$nows" | grep -c . || true)
if [ "$count" -gt "$TIME_NOW_BUDGET" ]; then
	echo "lint-determinism: $count time.Now calls in stepping packages (budget $TIME_NOW_BUDGET):" >&2
	echo "$nows" >&2
	fail=1
fi

# Distributed tier: every wall-clock read in internal/dist must flow
# through the Clock seam (clock.go).  Leases, heartbeats, and backoff are
# timing-sensitive but the statistics fold must not be, and the chaos
# suite can only script failure timelines if nothing else touches the
# clock.  time.Duration/time.Millisecond etc. are types and constants, not
# clock reads, and do not match.
clocked=$(grep -rnE 'time\.(Now|Sleep|After|AfterFunc|NewTimer|NewTicker|Tick|Since|Until)\(' \
	internal/dist --include='*.go' \
	| grep -v _test.go | grep -v 'internal/dist/clock\.go' || true)
if [ -n "$clocked" ]; then
	echo "lint-determinism: wall-clock reads in internal/dist outside the clock.go seam:" >&2
	echo "$clocked" >&2
	fail=1
fi

exit $fail
