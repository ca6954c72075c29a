# fdgrid — build, verify and smoke-test the reproduction.
#
#   make ci          vet + build + race tests + sweep smoke + examples (the full gate)
#   make lint        detlint: machine-check the determinism contracts
#   make test        plain unit tests
#   make smoke       short parallel sweep through cmd/experiments
#   make dispatch-smoke  suite through sweepd with a worker crash, diffed vs golden
#   make perf-smoke  one short perfbench pass per workload; fails unless its checks pass
#   make fuzz-smoke  run every fuzz target for 10 s each
#   make examples    go run every runnable example (drift gate)
#   make bench       every benchmark, 5 counts, as benchstat-ready text
#   make bench-gate  hot-path micro-benchmarks: this tree vs its parent commit

GO ?= go

.PHONY: ci vet lint build test race fuzz-smoke smoke dispatch-smoke perf-smoke examples bench bench-gate clean

ci: vet build race smoke dispatch-smoke examples

# detlint machine-checks the determinism and run-token ownership
# contracts (docs/ARCHITECTURE.md, "Enforced invariants"): wall-clock
# reads, global math/rand draws, map-order leaks into ordered output,
# locks/goroutines in run-token-owned packages, blocking calls in layer
# callbacks (Handle/Poll/NextWake run on other stacks), non-canonical trace
# rendering. Escapes are //detlint:allow comments with audited reasons.
lint:
	$(GO) run ./cmd/detlint ./...

# vet also enforces gofmt (a formatting diff fails the target with the
# offending files listed) and runs detlint, so the local static gate
# matches the CI vet job.
vet: lint
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle randomizes test order so inter-test state dependence breaks
# loudly here instead of lurking until a refactor reorders a file.
race:
	$(GO) test -race -shuffle=on ./...

# Fuzz smoke: each stdlib fuzz target explores past its seed corpus for
# 10 s (plain `go test` only replays the seeds). go test -fuzz takes one
# package and one target per invocation, hence one line per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSetOps$$' -fuzztime 10s ./internal/ids
	$(GO) test -run '^$$' -fuzz '^FuzzSetUnmarshalJSON$$' -fuzztime 10s ./internal/ids
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime 10s ./internal/dispatch
	$(GO) test -run '^$$' -fuzz '^FuzzParsePerturbation$$' -fuzztime 10s ./internal/sweep
	$(GO) test -run '^$$' -fuzz '^FuzzParseReplaySpec$$' -fuzztime 10s ./cmd/experiments
	$(GO) test -run '^$$' -fuzz '^FuzzDeliverMatchesPerMessage$$' -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzRoundStateMatchesScan$$' -fuzztime 10s ./internal/agreement
	$(GO) test -run '^$$' -fuzz '^FuzzPickDistinct$$' -fuzztime 10s ./internal/fd
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleGen$$' -fuzztime 10s ./internal/adversary
	$(GO) test -run '^$$' -fuzz '^FuzzOracleGen$$' -fuzztime 10s ./internal/adversary
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixJSON$$' -fuzztime 10s ./cmd/sweepd

# A short end-to-end sweep: every experiment matrix runs (the full
# matrix takes a couple of seconds), the rendered report and canonical
# JSON land in /tmp. Fails if any experiment reports FAILED. Fewer seeds
# are not used: EXP-T5's distinct-value witness needs several.
smoke: build
	$(GO) run ./cmd/experiments -out /tmp/fdgrid-smoke.md -report /tmp/fdgrid-smoke.json
	@if grep -q "FAILED" /tmp/fdgrid-smoke.md; then \
		echo "smoke sweep has FAILED verdicts:"; grep -B1 "FAILED" /tmp/fdgrid-smoke.md; exit 1; \
	fi
	@echo "smoke sweep clean: /tmp/fdgrid-smoke.md"

# Dispatch smoke: the fault-tolerance path end to end. Export the full
# suite's matrix specs, run them through sweepd with a 3-subprocess
# worker fleet while the fault injector crashes worker 0 after its 5th
# cell, and byte-compare the merged report against the committed suite
# golden — the dispatcher's suspicion, retries and re-sharding must
# provably lose nothing. The grep counts fail the target if the merged
# report has no pass verdicts, or if the paired-oracle cells lost their
# per-role (oracle_s / oracle_phi) verdicts. The stats artifact
# (retries, workers lost, duplicates discarded) is printed for the log
# but never byte-compared.
dispatch-smoke: build
	$(GO) build -o /tmp/fdgrid-sweepd ./cmd/sweepd
	$(GO) run ./cmd/experiments -seeds 3 -matrices /tmp/fdgrid-suite-spec.json
	/tmp/fdgrid-sweepd -matrices /tmp/fdgrid-suite-spec.json -workers 3 -units 8 \
		-fault "0:crash@5" -suspect 2s \
		-report /tmp/fdgrid-suite-dispatched.json \
		-stats /tmp/fdgrid-dispatch-stats.json \
		-golden cmd/experiments/testdata/suite.golden.json
	grep -c '"verdict": "pass"' /tmp/fdgrid-suite-dispatched.json
	grep -c '"oracle_s": "conforms"' /tmp/fdgrid-suite-dispatched.json
	grep -c '"oracle_phi": "conforms"' /tmp/fdgrid-suite-dispatched.json
	@cat /tmp/fdgrid-dispatch-stats.json

# Perf smoke: the repo benchmark (perfbench/README.md) over all three
# workloads, one pass each. perfbench exits 0 even when a check fails —
# a non-pass verdict, a golden byte mismatch, counts that do not repeat —
# and reports it as "correct":false on its last line, so this target
# reads that line and fails unless it says "correct":true. Timings are
# printed for the log but never gated here.
perf-smoke:
	@mkdir -p .bench_build
	bash perfbench/run.sh --workload all --seconds 1 > .bench_build/perf-smoke.out
	@last="$$(tail -n 1 .bench_build/perf-smoke.out)"; case "$$last" in \
		'{"correct":true,'*) echo "perf smoke correct (.bench_build/perf-smoke.out)";; \
		*) echo "perfbench run not correct; last line:"; echo "$$last"; exit 1;; \
	esac

# Examples smoke: run every example binary end to end so example drift
# (an API change the examples were not updated for, a run that starts
# failing) breaks the gate instead of rotting silently. Examples print
# to stdout; only their exit codes gate.
examples: build
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "examples clean"

# Full benchmark pass: every benchmark 5 times (benchstat wants repeated
# samples; a duration-based benchtime lets the nanosecond scheduler
# micro-benchmarks amortize their setup while keeping the sweep-heavy
# ones tractable). The output is plain `go test -bench` text: save two
# runs and compare them with benchstat. End-to-end suite timings are
# perfbench's job (make perf-smoke, perfbench/README.md).
bench: build
	$(GO) test -bench . -benchmem -count 5 -benchtime 300ms -run XXX .

# The micro-benchmark regression gate: build the root package's test
# binary from the parent commit (HEAD^1) and from the working tree, and
# let cmd/benchgate run the two alternately on this machine. A >25%
# median regression of any scheduler, delivery or fan-out benchmark
# fails (cmd/benchgate holds the gated set and the threshold). The raw
# samples land in .bench_build/gate/base.txt and head.txt for benchstat.
bench-gate:
	rm -rf .bench_build/gate && mkdir -p .bench_build/gate/src
	git archive HEAD^1 | tar -x -C .bench_build/gate/src
	cd .bench_build/gate/src && $(GO) test -c -o ../base.test .
	rm -rf .bench_build/gate/src
	$(GO) test -c -o .bench_build/gate/head.test .
	$(GO) run ./cmd/benchgate -base .bench_build/gate/base.test -head .bench_build/gate/head.test

clean:
	rm -f /tmp/fdgrid-smoke.md /tmp/fdgrid-smoke.json
