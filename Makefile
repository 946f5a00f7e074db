# IQ-Paths build/test/reproduction targets (stdlib-only Go module).

GO ?= go

.PHONY: all build vet test race cover bench perfgate e2e figures ablations html fuzz clean

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

# Runs every benchmark in the module and prints plain `go test -bench`
# output, for local per-layer attribution. Override BENCHTIME (e.g.
# BENCHTIME=100x) for a shorter pass. The cross-PR regression gate is
# `make perfgate`.
BENCHTIME ?= 1s
bench:
	$(GO) test -run xxx -bench=. -benchmem -benchtime=$(BENCHTIME) ./...

# Blocking performance gate: runs perfbench on the workloads and seeds in
# ci/perfbench_pins.json and fails on a failed operation, a pinned
# seed-deterministic outcome that moved, or allocs_per_op above its
# ceiling. `bash ci/perfgate.sh --update` re-pins the outcomes. ~3 min.
perfgate:
	bash ci/perfgate.sh

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
	$(GO) test -fuzz FuzzUnmarshal -fuzztime 10s -run xxx ./internal/transport/
	$(GO) test -fuzz FuzzBatchDatagrams -fuzztime 10s -run xxx ./internal/transport/
	$(GO) test -fuzz FuzzReadMessage -fuzztime 10s -run xxx ./internal/transport/
	$(GO) test -fuzz FuzzParseFrame -fuzztime 10s -run xxx ./internal/live/
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s -run xxx ./internal/live/
	$(GO) test -fuzz FuzzParseDelta -fuzztime 10s -run xxx ./internal/gossip/
	$(GO) test -fuzz FuzzParseDigest -fuzztime 10s -run xxx ./internal/gossip/
	$(GO) test -fuzz FuzzRecordRoundTrip -fuzztime 10s -run xxx ./internal/gossip/

clean:
	rm -rf figures
