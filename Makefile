# IQ-Paths build/test/reproduction targets (stdlib-only Go module).

GO ?= go

.PHONY: all build vet test race cover bench bench-compare e2e figures ablations html fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

# Runs every benchmark and records the ns/op + allocs baseline as JSON
# (BENCH_PR10.json) for regression comparison across PRs — including the
# BenchmarkPlaneScale streams × shards sweep (folded into "scaling"),
# the BenchmarkWireDatagrams dg/s/core series (folded into "wire"),
# the BenchmarkConverge conv-ticks series (folded into "gossip"),
# the BenchmarkProbing probe-B/round series (folded into "probing"), and
# the BenchmarkMatrix cell-Mbps series (folded into "matrix").
# Override BENCHTIME (e.g. BENCHTIME=1x) for a quick smoke pass.
BENCHTIME ?= 1s
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -out BENCH_PR10.json

# Diffs the benchmark suite against the previous PR's baseline and
# fails on >20 % ns/op regression or any new steady-state allocation.
# CI runs this non-blocking (continue-on-error) at BENCHTIME=100x — don't
# smoke it at 1x, a single cold iteration reads as a phantom regression.
bench-compare:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) \
		./internal/pgos/ ./internal/live/ ./internal/sched/ ./internal/predict/ \
		./internal/shard/ ./internal/telemetry/ ./internal/transport/ \
		./internal/gossip/ ./internal/bwest/ ./internal/control/ \
		./internal/simnet/ ./internal/quantile/ | \
		$(GO) run ./cmd/benchjson -out /tmp/bench-compare.json -compare BENCH_PR9.json -max-regress 20

# Live end-to-end smoke: the Fig. 8 overlay as shaped relay subprocesses
# on 127.0.0.1 with real UDP sockets and wall-clock pacing. Takes ~40 s;
# plain `go test ./...` skips it (gated on IQPATHS_E2E=1).
e2e:
	IQPATHS_E2E=1 $(GO) test -count=1 -timeout 180s -v -run TestLiveFig8 ./internal/live/e2e/

# Regenerate every paper table/figure into ./figures as CSV + stdout tables.
figures:
	$(GO) run ./cmd/iqbench -fig all -out figures

ablations:
	$(GO) run ./cmd/iqbench -fig ablations -out figures

# One self-contained HTML report with SVG charts for every figure.
html:
	$(GO) run ./cmd/iqbench -html figures/report.html

fuzz:
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 30s -run xxx ./internal/transport/
	$(GO) test -fuzz FuzzBatchDatagrams -fuzztime 30s -run xxx ./internal/transport/
	$(GO) test -fuzz FuzzReadMessage -fuzztime 30s -run xxx ./internal/transport/
	$(GO) test -fuzz FuzzRead -fuzztime 30s -run xxx ./internal/trace/
	$(GO) test -fuzz FuzzParseFrame -fuzztime 30s -run xxx ./internal/live/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 30s -run xxx ./internal/live/
	$(GO) test -fuzz FuzzParseDelta -fuzztime 30s -run xxx ./internal/gossip/
	$(GO) test -fuzz FuzzParseDigest -fuzztime 30s -run xxx ./internal/gossip/
	$(GO) test -fuzz FuzzRecordRoundTrip -fuzztime 30s -run xxx ./internal/gossip/
	$(GO) test -fuzz FuzzParsePlan -fuzztime 30s -run xxx ./internal/bwest/
	$(GO) test -fuzz FuzzParseSummaries -fuzztime 30s -run xxx ./internal/bwest/

clean:
	rm -rf figures
