GO ?= go

.PHONY: build test check bench-check bench bench-campaign bench-seed bench-guard bench-ibp bench-platoon campaign-smoke guard-smoke platoon-smoke alloc-gate serve-smoke dist-smoke ibp-gate golden fuzz-smoke lint-extra loc-delta perf-pairs

build:
	$(GO) build ./...

# Tier-1 verification (see ROADMAP.md).
test: build
	$(GO) test ./...

# Full gate: vet + the whole suite under the race detector (includes the
# concurrent-campaign telemetry tests), then the golden-trace regressions
# (left turn, certified-NN left turn, multi-vehicle, car following,
# platoon, every registered workload's meaning and cmd/figures' output
# of every study),
# the committed fuzz corpora (guarded planner, IBP containment, the serve
# and dist wire protocols, the vector kernels against their scalar
# references, the IBP tanh epilogue's AVX-512 and AVX2 kernels against
# their Go twin and the checkpoint loader), and a short fuzzing smoke pass over the safety invariants, the
# wire protocols and their shared bounded decoder, the kernels and the
# checkpoint loader,
# bench-check, and the determinism lint (scripts/lint_determinism.sh).
check:
	$(GO) vet ./...
	./scripts/lint_determinism.sh
	$(GO) test -race ./...
	$(MAKE) bench-check
	$(GO) test -run TestGolden ./internal/sim ./internal/carfollow ./internal/platoon ./internal/workloads ./cmd/figures
	$(GO) test -run FuzzGuardedPlanner ./internal/sim
	$(GO) test -run 'FuzzIBPContainment|FuzzTanhEpilogue' ./internal/nn/ibp
	$(GO) test -run 'FuzzTanhInto|FuzzMidRadInto|FuzzDotRowsInto' ./internal/mat
	$(GO) test -run FuzzServeProtocol ./internal/serve
	$(GO) test -run FuzzDistProtocol ./internal/dist
	$(GO) test -run FuzzCheckpointLoad ./internal/campaign
	$(MAKE) fuzz-smoke

# The benchmark module under perfbench/ vetted and tested at tiny size
# (go test ./... does not reach it: it is its own module), the committed
# BENCH_seed.json, BENCH_ibp.json and BENCH_guard_quick.json rerun from
# their recorded sizes and seeds, and a 200-episode four-vehicle platoon
# report written on one worker to $TMPDIR and rerun on every core, so
# all four cmd/bench suites are rechecked: every row compared byte for
# byte apart from its perf timings (cmd/bench -check).  About 20 s.
bench-check:
	cd perfbench && $(GO) vet . && $(GO) test -short .
	$(GO) run ./cmd/bench -check BENCH_seed.json
	$(GO) run ./cmd/bench -check BENCH_ibp.json
	$(GO) run ./cmd/bench -check BENCH_guard_quick.json
	$(GO) run ./cmd/bench -platoon -episodes 200 -workers 1 -out $${TMPDIR:-/tmp}/BENCH_platoon_check.json
	$(GO) run ./cmd/bench -check $${TMPDIR:-/tmp}/BENCH_platoon_check.json

# Re-bless the golden traces, the workload registry's golden and
# cmd/figures' output after an intentional behaviour change.
golden:
	$(GO) test -run TestGolden ./internal/sim ./internal/carfollow ./internal/platoon ./internal/workloads ./cmd/figures -update

# Short fuzzing pass: ~20s per safety target, per wire protocol, for the
# wire layer's bounded decoder, per vector kernel and for the checkpoint
# loader.  The kernels', the dist protocol's and the checkpoint loader's
# targets cap input minimization at 1000 runs: minimizing their long
# inputs would otherwise use up the 20s.  The full corpus grows under
# `go test -fuzz <Target> <pkg>` without a -fuzztime bound.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCompoundSafety -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzCarFollowSafety -fuzztime 20s ./internal/carfollow
	$(GO) test -run '^$$' -fuzz FuzzPlatoonSafety -fuzztime 20s ./internal/platoon
	$(GO) test -run '^$$' -fuzz FuzzGuardedPlanner -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzServeProtocol -fuzztime 20s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime 20s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzIBPContainment -fuzztime 20s ./internal/nn/ibp
	$(GO) test -run '^$$' -fuzz FuzzTanhInto -fuzztime 20s -fuzzminimizetime 1000x ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzMidRadInto -fuzztime 20s -fuzzminimizetime 1000x ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzDotRowsInto -fuzztime 20s -fuzzminimizetime 1000x ./internal/mat
	$(GO) test -run '^$$' -fuzz FuzzTanhEpilogue -fuzztime 20s -fuzzminimizetime 1000x ./internal/nn/ibp
	$(GO) test -run '^$$' -fuzz FuzzDistProtocol -fuzztime 20s -fuzzminimizetime 1000x ./internal/dist
	$(GO) test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 20s -fuzzminimizetime 1000x ./internal/campaign

# Optional linters plus the in-tree determinism hygiene check: no global
# math/rand calls and no new time.Now in the stepping packages (see
# scripts/lint_determinism.sh for the rationale and the probe budget).
lint-extra:
	./scripts/lint_determinism.sh
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "govulncheck not installed; skipping"

# Net line delta of the working tree against BASE (a commit,
# branch or tag), with the perfbench module on its own line:
# `make loc-delta BASE=main`.  See scripts/loc_delta.sh for what counts.
loc-delta:
	@test -n "$(BASE)" || { echo "usage: make loc-delta BASE=<ref>" >&2; exit 2; }
	./scripts/loc_delta.sh $(BASE)

# Alternating perfbench pairs of BASE against the working tree, BASE
# first in the first pair, seeds SEED… (default 1), with the median
# [quartiles] and wins table of EXPERIMENTS.md:
# `make perf-pairs BASE=main WORKLOAD=campaign-certified-nn PAIRS=10 SECONDS=40`.
# BASE is checked out in a git worktree under $TMPDIR and removed after;
# see scripts/perf_pairs.sh.
perf-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" -a -n "$(PAIRS)" -a -n "$(SECONDS)" || { echo "usage: make perf-pairs BASE=<ref> WORKLOAD=<w> PAIRS=<n> SECONDS=<s> [SEED=<s>]" >&2; exit 2; }
	./scripts/perf_pairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SECONDS) $(or $(SEED),1)

# Allocation-regression gate: a warmed scratch arena, whose pooled engines
# keep their hooks and per-link storage, must keep the episode hot path of
# all four scenarios (the left turn and the multi-vehicle stream on
# sim.MultiStepper, car following and the platoon on carfollow.Stepper,
# both on the shared sim.Engine step skeleton) allocation-free with their
# campaign invariant sets attached (budget in
# internal/sim/alloc_test.go; 0 for the car-following NN planner), the
# arena path must stay bit-identical to the allocate-per-episode path,
# and an IBP propagation with a reused scratch (interval and point boxes,
# on the fused centre/radius and the point kernels) and Network.Predict1
# (stack activations, vector tanh) must not allocate.
alloc-gate:
	$(GO) test -run 'TestEpisodeAllocs|TestMultiEpisodeAllocs|TestScratchParity|TestCertifyEpisodeAllocs' ./internal/sim -v
	$(GO) test -run TestCarFollowEpisodeAllocs ./internal/carfollow -v
	$(GO) test -run TestPlatoonEpisodeAllocs ./internal/platoon -v
	$(GO) test -run TestIBPAllocs ./internal/nn/ibp -v
	$(GO) test -run TestPredict1Allocs ./internal/nn -v

# Certification gate: the IBP soundness property suites (containment of
# the network's float output with no tolerance, the tanh enclosure, point
# boxes and the two-sided reference within their stated width bounds, the
# shipped planners' widening, the leftturn/carfollow feature brackets, the
# monitor edge cases), the bitwise tests of the kernels IBP and Predict1
# run on (VecMatInto against the naive loop, MidRadInto against
# VecMatInto, TanhInto against math.Tanh, each on every kernel tier the
# CPU supports, and the AVX-512 and AVX2 tanh epilogues against their
# Go twin, also on every tier the CPU supports),
# the committed fuzz corpus replay, and a quick
# certification sweep over the trained models asserting zero
# certified-range misses on the clean canonical scenario.  The purego
# lines run the same bitwise tests and the left-turn goldens on the
# portable Go kernels, and the arm64 vet keeps the build tags compiling
# off amd64.
ibp-gate:
	$(GO) test ./internal/nn/ibp -count=1
	$(GO) test ./internal/mat -count=1
	$(GO) test -tags purego ./internal/mat ./internal/nn/... -count=1
	$(GO) test -tags purego -run TestGolden ./internal/sim -count=1
	GOARCH=arm64 $(GO) vet ./internal/mat ./internal/nn/...
	$(GO) test -run 'TestFeatureBox' ./internal/leftturn ./internal/carfollow -count=1
	$(GO) test -run 'TestCertify' ./internal/sim -count=1
	$(GO) test ./internal/monitor -count=1
	$(GO) run ./cmd/bench -ibp -quick -out /tmp/BENCH_ibp_gate.json

# Serving CI gate: a short soak (500 concurrent sessions stepped to
# termination under the burst preset) asserting the p99 step-latency SLO,
# zero sound violations, zero collisions, and no goroutine leak across
# Server.Close, plus the full session-lifecycle suite.
serve-smoke:
	SERVE_SOAK_SESSIONS=500 $(GO) test ./internal/serve -count=1 -v

# Distributed-campaign CI gate: a campaignd coordinator with two bench
# -worker processes, one hard-killed mid-shard and revived from its
# checkpoint; the folded stats must be byte-identical (cmp) to a
# single-process run of the same campaign, and the revival must resume
# mid-shard rather than recompute.  See scripts/dist_smoke.sh.
dist-smoke:
	./scripts/dist_smoke.sh

# Go micro/macro benchmarks only (no unit tests alongside).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Full canonical campaign matrix through the sharded engine; writes
# BENCH_campaign.json with throughput, latency percentiles, Wilson-interval
# outcome rates, and the parallel-speedup probe.
bench-campaign:
	$(GO) run ./cmd/bench -out BENCH_campaign.json

# Small stable snapshot (committed as BENCH_seed.json) for regression
# comparison across machines and revisions.
bench-seed:
	$(GO) run ./cmd/bench -quick -out BENCH_seed.json

# CI safety gate: one 10k-episode campaign with every invariant checker in
# fail mode; exits nonzero on the first violation.
campaign-smoke:
	$(GO) run ./cmd/bench -smoke

# Guard CI gate: the acceptance worst cases (half of all planner calls
# panicking / returning NaN) over 10k episodes each, containment checkers
# in fail mode.
guard-smoke:
	$(GO) run ./cmd/bench -smoke -guard

# Platoon CI gate: a clean four-vehicle chain and one with the burst
# preset on link 0, the link the compound planner reads, 10k episodes
# each, the chain's checkers (pairwise no-collision, per-link soundness,
# true-state slack, string stability) in fail mode.
platoon-smoke:
	$(GO) run ./cmd/bench -smoke -platoon

# N-vehicle chained-link platoon matrix: canonical settings on all links
# plus the burst preset rotated over each link; writes BENCH_platoon.json.
bench-platoon:
	$(GO) run ./cmd/bench -platoon -out BENCH_platoon.json

# Compute-fault matrix: one guarded campaign per planner-fault preset;
# writes BENCH_guard.json with mean η and crash-free rate per preset
# (5,000 episodes each, the published table), and BENCH_guard_quick.json
# at 500 episodes each, the snapshot bench-check reruns.
bench-guard:
	$(GO) run ./cmd/bench -guard -out BENCH_guard.json
	$(GO) run ./cmd/bench -guard -quick -out BENCH_guard_quick.json

# Offline certification sweep: every trained-NN design on the clean
# canonical scenario in IBP verified mode; fails on any certified-range
# miss.  Writes BENCH_ibp.json at the committed snapshot's size (-quick,
# 500 episodes per design), so its stats compare byte for byte.
bench-ibp:
	$(GO) run ./cmd/bench -ibp -quick -out BENCH_ibp.json
