# PRORD build, test and correctness tooling.
#
#   make build   compile everything
#   make test    tier-1 tests
#   make race    tests under the race detector (includes the httpfront
#                concurrency stress test and the determinism regressions)
#   make vet     gofmt (fails on any unformatted file), then go vet over
#                the root module and the nested perfbench benchmark
#                module (which ./... does not reach)
#   make lint    the repo's custom determinism/concurrency analyzers,
#                gated on lint.baseline.json (any non-baselined finding
#                fails); writes prordlint.sarif for upload
#   make lint-baseline  deliberately regenerate lint.baseline.json from
#                current findings — a reviewed, committed act; never
#                run in CI
#   make race-stress  the concurrency stress suites repeated under the
#                race detector (failover, overload, decision core,
#                autoscale, snapshot, gray failure, fleet) for hunting
#                flakes that one pass of `make race` can miss
#   make bench-smoke  dispatch decision-latency microbench plus a short
#                live-cluster loadgen run over all policies, plus the
#                autoscale artifact (scale-up latency, warm-vs-cold join),
#                the gray-fault artifact (p99 with the resilience
#                layer off vs on under a slow=x10 backend) and the fleet
#                artifact (decisions/sec, p99 and handoff rate at
#                k ∈ {1,2,4} distributor replicas)
#   make bench-gate  measure a fresh dispatch artifact and fail if its
#                parallel decisions-per-second trendline regressed >15%
#                against the committed BENCH_dispatch.baseline.json;
#                also prints the fleet k ∈ {1,2,4} rows ungated
#   make bench-baseline  deliberately re-measure and overwrite the
#                committed bench baseline — a reviewed act; never in CI
#   make ci      the full gate CI runs on every push and PR, ending with
#                a 10s fuzz smoke of the front-end's attempt writer

GO ?= go

.PHONY: build test race vet lint lint-baseline race-stress bench-smoke bench-gate bench-baseline ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

lint:
	$(GO) run ./cmd/prordlint -baseline lint.baseline.json -sarif prordlint.sarif ./...

# Regenerating the baseline grandfathers every current finding: do it
# only when deliberately accepting new debt, and commit the diff so the
# review shows exactly what was grandfathered. CI never runs this.
lint-baseline:
	$(GO) run ./cmd/prordlint -baseline lint.baseline.json -write-baseline ./...

# The stress suites repeated under the race detector. Each is already
# part of `make race`; repeating them with -count=2 hunts flakes in the
# concurrent paths. The invocations cover, in order:
#   failover   backend crashes masked by retry, breaker trips and
#              half-open recovery, the done() bookkeeping churn test
#   overload   estimator/tier transitions, the Critical-tier admission
#              gate, tiered shedding, the loadgen rate-ramp scenario
#   dispatch   the sim-vs-live differential replay and booking churn
#   autoscale  the pool state machines, then the join/drain churn storm,
#              the scripted-scale differential and the live scale paths
#   snapshot   snapshot publishes and pool resizes racing Route/Done/
#              Rebook, the golden-digest differential, the blocking-
#              Recorder regression
#   gray       the outlier detector, then hedge races in both finishing
#              orders, degraded-transition churn, the sim replay
#   fleet      ring and gossip churn storms, then the ownership-handoff
#              storm, forward/gossip churn, the k-distributor sim replay
#              and the multi-replica loadgen spray
race-stress:
	$(GO) test -race -count=2 -run 'Failover|Fault|Probe|Churn|Breaker' \
		./internal/health/ ./internal/httpfront/ ./internal/loadgen/
	$(GO) test -race -count=2 -run 'Overload|Admission|Shed|Tier|Gate|Ramp|Estimator' \
		./internal/overload/ ./internal/httpfront/ ./internal/cluster/ ./internal/loadgen/
	$(GO) test -race -count=2 -run 'Differential|Churn' ./internal/dispatch/
	$(GO) test -race -count=2 ./internal/autoscale/
	$(GO) test -race -count=2 -run 'Scale|Elastic|Autoscale|Warm|Drain' \
		./internal/dispatch/ ./internal/httpfront/ ./internal/loadgen/
	$(GO) test -race -count=2 -run 'Snapshot|Recorder|Fold|Updater' \
		./internal/dispatch/ ./internal/mining/
	$(GO) test -race -count=2 ./internal/health/
	$(GO) test -race -count=2 -run 'Gray|Hedge|Degraded|Slow|Deadline' \
		./internal/dispatch/ ./internal/httpfront/ ./internal/cluster/ ./internal/loadgen/
	$(GO) test -race -count=2 ./internal/fleet/
	$(GO) test -race -count=2 -run 'Fleet|Ownership|Ring|Gossip' \
		./internal/dispatch/ ./internal/httpfront/ ./internal/cluster/ ./internal/loadgen/

# A ~30s benchmark pass: the decision core's Route/Done microbenchmarks
# (with the latency distribution written as BENCH_dispatch.json in the
# shared artifact schema), then open-loop load against 2 demo backends
# for each of the three headline policies, with the simulator comparison
# attached in BENCH_loadgen.json. CI uploads both artifacts.
bench-smoke:
	BENCH_DISPATCH_OUT=$(CURDIR)/BENCH_dispatch.json $(GO) test \
		-run TestDispatchBenchArtifact -bench 'BenchmarkDispatch' \
		-benchtime 0.5s ./internal/dispatch/
	$(GO) run ./cmd/prord-loadgen -mode open -policy WRR,LARD,PRORD \
		-backends 2 -rate 300 -duration 10s -warmup 2s -seed 1 \
		-scale 0.1 -out BENCH_loadgen.json
	BENCH_AUTOSCALE_OUT=$(CURDIR)/BENCH_autoscale.json $(GO) test \
		-run TestAutoscaleBenchArtifact ./internal/cluster/
	BENCH_GRAYFAULT_OUT=$(CURDIR)/BENCH_grayfault.json $(GO) test \
		-run TestGrayFaultBenchArtifact ./internal/cluster/
	BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test \
		-run TestFleetBenchArtifact ./internal/dispatch/

# The dispatch throughput gate: measure a fresh artifact (same writer
# bench-smoke uses) and compare its route-done-parallel throughput_rps
# against the committed baseline. A zero trendline — the truncated-
# artifact bug this gate exists for — or a >15% regression fails the
# build; improvements pass and the baseline only moves via
# `make bench-baseline`.
bench-gate:
	BENCH_DISPATCH_OUT=$(CURDIR)/BENCH_dispatch.json \
	BENCH_FLEET_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test \
		-run 'TestDispatchBenchArtifact|TestFleetBenchArtifact' ./internal/dispatch/
	$(GO) run ./cmd/prord-benchgate -fresh BENCH_dispatch.json \
		-baseline BENCH_dispatch.baseline.json -tolerance 15 \
		-fleet BENCH_fleet.json

# Re-measuring the baseline resets the regression reference point: do it
# only deliberately (after an accepted perf change or a hardware move)
# and commit the diff so review shows the trendline jump. CI never runs
# this.
bench-baseline:
	BENCH_DISPATCH_OUT=$(CURDIR)/BENCH_dispatch.baseline.json $(GO) test \
		-run TestDispatchBenchArtifact ./internal/dispatch/

ci: build vet lint race race-stress bench-gate
	$(GO) test -run '^$$' -fuzz FuzzAttemptWriter -fuzztime 10s ./internal/httpfront/
