# Local and CI entry points — .github/workflows/ci.yml invokes exactly
# these targets so a green local run means a green CI run. The benchmark
# baseline workflow (bench-json / bench-gate / bench-baseline) is described
# in docs/ci.md.

GO ?= go

# The benchmark subset tracked by the regression gate: the broker hot-path
# pipelines, the multi-consumer ablation, the multi-scheduler agent
# ablation (the RTS dispatch path), the run-control event-stream
# overhead (events-off must stay the no-subscriber fast path; events-on
# within ~10% of it), the synchronizer round trips (durable-frame is one
# frame of two bulk task requests committed by a real synchronizer over a
# journal directory — one write per bulk request;
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

# A go statement, for the lint rules that count them (comments stripped first).
GO_STMT := (^|[^[:alnum:]_.])go [[:alnum:]_(]

.PHONY: build test budgets fuzz bench lint bench-json bench-gate bench-baseline check-artifacts daemon-smoke remote-smoke e2e

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# The two budgets whose reading depends on how many Ps the scheduler has — a
# stage's sync frames (the completion drain's yield coalesces its results) and
# the task path's allocations per task (each frame a stage's results split
# into costs its own deliveries) — at one, two and four. No -race:
# both skip or only log under it.
budgets:
	$(GO) test -count=1 -run '^TestStageFrameBudget$$' -cpu 1,2,4 ./internal/core
	$(GO) test -count=1 -run '^TestTaskPathAllocBudget$$' -cpu 1,2,4 .

# A short coverage-guided pass over the decoders of untrusted bytes: the two
# that read what a crash left on disk (the journal scanner against its
# unbuffered reference, and the snapshot loader) and the two that read what
# arrives on a connection or from entk-dump (every control-plane frame — with the
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
# *Reporter interface again (docs/api.md, "The RTS contract"); the broker
# stays a leaf that imports no other package of this module, so durability —
# which JournalDir and statedb own (docs/recovery.md) — cannot creep back into
# it through an import; the engine's in-process queues carry values, so
# no non-test code in internal/core may name a codec of the frames they used
# to carry as bytes (0x01-0x04: pending UIDs, sync frame and ack, results);
# and outside the frozen bench/ harness, every deployment shape builds its
# simulated CI through rts.NewMachine and every RTS hands results back
# through core.Outbox, so no other non-test file may call hpc.NewCluster or
# make a channel of TaskResult; and the broker publishes, pops and settles
# through one implementation each, a single message being a batch of one, so
# its non-test code calls each unacked-ledger and ready-ring operation from
# exactly one place and has no call that appends a lone message; and the RTS
# task store has one pull path — a lone scheduler drains a one-shard store,
# so strict FIFO needs no pop of its own — so non-test internal/rts calls
# popShard from exactly one place. And each value moves on the goroutine that
# produces it: an event subscription is its channel, which the bus sends on,
# so non-test internal/core/events.go starts no goroutine and has no
# sync.Cond; and an executor books its own stager, so non-test
# internal/rts/agent.go starts exactly two kinds of goroutine, the scheduler
# loops and the executors; and a composite RTS's members deliver into its
# channel themselves, so non-test internal/rts/composite.go starts none, by a
# go statement or by Outbox.Go.
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
	@imported=$$($(GO) list -deps ./internal/broker | grep '^repro/' | grep -vx 'repro/internal/broker' || true); \
	if [ -n "$$imported" ]; then \
		echo "internal/broker imports other packages of this module; keep it a leaf:"; \
		echo "$$imported"; exit 1; \
	fi
	@encoded=$$(grep -nwE --include='*.go' --exclude='*_test.go' -r '(Encode|Decode|Append)(TaskUIDs?|SyncFrame(Into)?|SyncAck|TaskResults(Shared)?)' internal/core || true); \
	if [ -n "$$encoded" ]; then \
		echo "internal/core encodes or decodes an in-process message; hand the queue the value instead:"; \
		echo "$$encoded"; exit 1; \
	fi
	@clusters=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'hpc\.NewCluster\(' . | grep -vE '^\./(bench/|internal/rts/machine\.go:)' || true); \
	if [ -n "$$clusters" ]; then \
		echo "a simulated CI is built outside rts.NewMachine; build it there:"; \
		echo "$$clusters"; exit 1; \
	fi
	@results=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'make\(chan [^,)]*TaskResult' . | grep -vE '^\./(bench/|internal/core/completions\.go:)' || true); \
	if [ -n "$$results" ]; then \
		echo "an RTS makes its own completion channel; hand results back through core.Outbox:"; \
		echo "$$results"; exit 1; \
	fi
	@for rule in 'ledgerAddLocked(=1' 'ledgerRemoveLocked(=1' 'ready.PopFront(=1' 'ready.PushFront(=1' 'ready.PushBack(=0'; do \
		call=$${rule%=*}; want=$${rule##*=}; \
		got=$$(grep -rhF --include='*.go' --exclude='*_test.go' "$$call" internal/broker | grep -v '^func ' | grep -oF "$$call" | wc -l); \
		if [ "$$got" -ne "$$want" ]; then \
			echo "internal/broker calls $$call from $$got places, want $$want: fold the second path into the batch one"; \
			grep -rnF --include='*.go' --exclude='*_test.go' "$$call" internal/broker | grep -v ':func '; exit 1; \
		fi; \
	done
	@got=$$(grep -rhF --include='*.go' --exclude='*_test.go' 'popShard(' internal/rts | grep -v '^func ' | grep -oF 'popShard(' | wc -l); \
	if [ "$$got" -ne 1 ]; then \
		echo "internal/rts calls popShard( from $$got places, want 1: the store has one pull path"; \
		grep -rnF --include='*.go' --exclude='*_test.go' 'popShard(' internal/rts | grep -v ':func '; exit 1; \
	fi
	@relay=$$(sed 's|//.*||' internal/core/events.go | grep -nE '$(GO_STMT)|sync\.Cond' || true); \
	if [ -n "$$relay" ]; then \
		echo "internal/core/events.go starts a goroutine or waits on a sync.Cond; the bus sends on the subscription's channel itself:"; \
		echo "$$relay"; exit 1; \
	fi
	@got=$$(sed 's|//.*||' internal/rts/agent.go | grep -cE '$(GO_STMT)'); \
	if [ "$$got" -ne 2 ]; then \
		echo "internal/rts/agent.go has $$got go statements, want 2 (scheduler loops, executors): an executor books its own stager"; \
		sed 's|//.*||' internal/rts/agent.go | grep -nE '$(GO_STMT)'; exit 1; \
	fi
	@relay=$$(sed 's|//.*||' internal/rts/composite.go | grep -nE '$(GO_STMT)|\.Go\(' || true); \
	if [ -n "$$relay" ]; then \
		echo "internal/rts/composite.go starts a goroutine (a go statement or Outbox.Go); a member delivers into the composite's channel itself:"; \
		echo "$$relay"; exit 1; \
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
