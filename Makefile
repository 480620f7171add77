# Local and CI entry points — .github/workflows/ci.yml invokes exactly
# these targets so a green local run means a green CI run. The benchmark
# baseline workflow (bench-json / bench-gate / bench-baseline) is described
# in docs/ci.md.

GO ?= go

# The benchmark subset tracked by the regression gate: the broker hot-path
# pipelines, the multi-consumer ablation, the multi-scheduler agent
# ablation (the RTS dispatch path), the run-control event-stream
# overhead (events-off must stay the no-subscriber fast path; events-on
# within ~10% of it), the synchronizer round-trip shapes (batched frames
# must stay O(1) per stage; durable-frame is the same frame committed by a
# real synchronizer over a journal directory — one write per bulk request;
# wide-stage-1p is a whole 4096-task stage on one P, where a per-message
# rescan of the stage would show as a quadratic; chain-stage is 256 8-task
# stages in sequence and reports frames/stage — ~4, and 10+ when a stage's
# results stop reaching the committer together), Snapshot on 10^5 tasks
# (O(stages): it reads tallies), the daemon multi-run comparison (K concurrent
# entkd-hosted runs vs K sequential in-process runs — the shared pilot
# pool must keep amortizing setup) and the remote round-trip ablation
# (the networked control plane's batched-frame tax over unix/TCP against
# the in-process path), the autotune overhead contract (controller-on
# steady state within 3% of controller-off; docs/autotune.md) and the
# autotune ablation (bursty workload: static worst/best vs the live
# controller). Stable, fast, and the numbers this
# repo's PRs argue about. benchdiff also gates allocs/op at 10%, and on CI the alloc gate
# is a hard failure while ns/op stays warn-only (see docs/ci.md).
BENCH_GATE := ^(BenchmarkBroker|BenchmarkAblationBrokerConsumers|BenchmarkAblationSchedulers|BenchmarkEventStreamOverhead|BenchmarkSyncTransition|BenchmarkSnapshot|BenchmarkRecovery|BenchmarkDaemonMultiRun|BenchmarkRemoteRoundTrip|BenchmarkAutotuneOverhead|BenchmarkAblationAutotune)

.PHONY: build test budgets fuzz bench lint bench-json bench-gate bench-baseline check-artifacts daemon-smoke remote-smoke e2e

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The two budgets whose reading depends on how many Ps the scheduler has — a
# stage's sync frames (the completion drain's yield coalesces its results) and
# the task path's allocations per task (each frame a stage's results split
# into costs its own body, delivery and ack) — at one, two and four. No -race:
# both skip or only log under it.
budgets:
	$(GO) test -count=1 -run '^TestStageFrameBudget$$' -cpu 1,2,4 ./internal/core
	$(GO) test -count=1 -run '^TestTaskPathAllocBudget$$' -cpu 1,2,4 .

# A short coverage-guided pass over the decoders of untrusted bytes: the two
# that read what a crash left on disk (the journal scanner against its
# unbuffered reference, and the snapshot loader) and the two that read what
# arrives on a queue or a connection (every control-plane frame — with the
# resolving decoders held to the plain ones under every kind of resolver —
# and every remote frame). `make test` already replays the seed corpus;
# this mutates it. -fuzz takes one target per run.
fuzz:
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzScanFile$$' -fuzztime 15s
	$(GO) test ./internal/statedb -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 15s
	$(GO) test ./internal/msgcodec -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 15s
	$(GO) test ./internal/msgcodec -run '^$$' -fuzz '^FuzzDecodeRemote$$' -fuzztime 15s

# One pass over every benchmark so they cannot bit-rot; real measurements
# use `go test -bench=<pattern> -benchmem -benchtime=...` directly.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run the gated benchmark subset long enough for stable numbers and write
# them as BENCH_CURRENT.json (benchmark -> ns/op, B/op, allocs/op). Two counts;
# benchdiff keeps the best run of each, damping scheduler noise.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -benchtime 300ms -count 2 . | tee bench.out
	$(GO) run ./cmd/benchdiff -parse bench.out -out BENCH_CURRENT.json

# Compare fresh numbers against the checked-in baseline; exits nonzero on a
# >25% ns/op regression. CI runs the same comparison with -warn (shared
# runners are too noisy for a hard gate).
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json

# Re-record the baseline after an intentional performance change.
bench-baseline: bench-json
	cp BENCH_CURRENT.json BENCH_BASELINE.json

# Besides gofmt and vet: core.RTS.Stats() is the whole telemetry contract, so
# no non-test code may discover more by type-asserting an RTS to an optional
# *Reporter interface again (docs/api.md, "The RTS contract").
lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	@asserted=$$(grep -rnE --include='*.go' --exclude='*_test.go' '\.\((core\.)?[A-Za-z]*Reporter\)' . || true); \
	if [ -n "$$asserted" ]; then \
		echo "an RTS is type-asserted to a Reporter interface; put the field in core.RTSStats instead:"; \
		echo "$$asserted"; exit 1; \
	fi
	$(GO) vet ./...

# Fail if any gitignored build artifact (bench.out, *.test, ...) is tracked
# in the index — they belong to local runs, never to the repository.
check-artifacts:
	@tracked=$$(git ls-files -i -c --exclude-standard); \
	if [ -n "$$tracked" ]; then \
		echo "gitignored artifacts are tracked:"; echo "$$tracked"; exit 1; \
	fi

# End-to-end entkd smoke: start the daemon, submit the shipped example app
# over the unix socket, wait for DONE, shut down and assert no leaked lease.
daemon-smoke:
	./scripts/daemon-smoke.sh

# End-to-end networked-control-plane smoke: start two entk-agent processes
# on localhost TCP, drive the example app through both from one manager,
# assert every task DONE with zero stranded frames.
remote-smoke:
	./scripts/remote-smoke.sh

# The end-to-end benchmark BENCHMARK.json declares (bench/README.md): all
# six workloads against the real stack, outputs checked, every metric
# printed by name and unit.
e2e:
	bash bench/run.sh
