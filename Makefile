# Developer entry points. `make verify` is the full local gate; `make tier1`
# is the minimal build-and-test check the roadmap pins.

GO ?= go

.PHONY: all tier1 vet race short test bench bench-smoke bench-json cover fuzz-smoke shuffle faultnet-soak stress fobsd-smoke verify

all: verify

# The roadmap's tier-1 gate: everything builds, every test passes.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# Static checks: go vet plus a gofmt cleanliness gate (gofmt -l prints
# nothing when the tree is formatted; any output fails the target).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The concurrency-heavy packages (real sockets, fault injection, server
# demux) must stay clean under the race detector.
race:
	$(GO) test -race ./...

# Quick signal: skips the fault-injection and real-socket heavyweights.
short:
	$(GO) test -short ./...

test: tier1

# Smoke-run every benchmark in the tree once. The real-socket heavyweights
# honour -short and are skipped here; drop the flag for real numbers.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run=^$$ ./...

# One pass of the striped loopback benchmark: a quick end-to-end signal
# that 1/2/4-stream transfers all complete on this machine. Informational
# (CI runs it non-gating) — loopback numbers vary too much to gate on.
bench-smoke:
	$(GO) test ./internal/udprt -run '^$$' -bench BenchmarkStripedLoopback -benchtime=1x

# Full batched-IO benchmark sweep, recorded as machine-readable JSON for
# regression tracking: ns/op, packets/sec and allocs/op per path, plus
# fast-vs-scalar speedup ratios.
bench-json:
	$(GO) test -bench=. -benchtime=1s -run=^$$ ./internal/udprt \
		| $(GO) run ./cmd/fobs-benchjson > BENCH_udprt.json
	@grep -A4 '"ratios"' BENCH_udprt.json | head -8 || true
	@grep -A4 '"overheads"' BENCH_udprt.json | head -8 || true
	@grep -A4 '"policies"' BENCH_udprt.json | head -8 || true

# Statement coverage with a per-package summary. The full profile lands in
# cover.out for `go tool cover -html=cover.out`; the summary totals are
# recorded in DESIGN.md's testing section.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@echo "per-package:"
	@$(GO) test -count=1 -cover ./... 2>/dev/null | awk '/coverage:/ {printf "  %-40s %s\n", $$2, $$5}'

# Order-independence gate: the whole suite with test order shuffled. Tests
# that secretly depend on a predecessor (a leaked socket, a package-level
# registry, a leftover checkpoint file) fail here before they flake in CI.
shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# Extended fault-injection soak: the sever/flap/resume suites and the proxy
# itself, raced and repeated, to surface the low-probability interleavings a
# single run misses. Scheduled CI runs this non-gating; it is too slow for
# the per-push gate.
faultnet-soak:
	$(GO) test -race -count=10 ./internal/udprt ./internal/faultnet

# Timing-sensitive suites repeated on one and on two CPUs: the udprt
# dedup, resume, retry and server receive paths, the kill-point guards
# (their cuts are counted by faultnet.Proxy, not fired from a progress
# callback), and the fobsd kill-point sweep. These are the tests that
# passed alone but failed under full-suite load; a failure here is a bug to
# fix at its cause, not a timeout to widen. STRESS_COUNT sets N.
STRESS_COUNT ?= 10
stress:
	$(GO) test ./internal/udprt -count=$(STRESS_COUNT) -cpu=1,2 \
		-run 'Dedup|Resume|Retry|Server|SenderStallMidTransferViaBlackhole|SeverControlMidTransfer'
	$(GO) test ./internal/tasks -count=$(STRESS_COUNT) -cpu=1,2 -run 'TestDaemonKillPointSweep'

# End-to-end daemon crash drill against the real binary: build fobsd,
# submit three tasks over loopback, SIGKILL it mid-flight, restart it over
# the same state directory, and require every task to complete with
# bit-identical objects and restored (not resent) packets.
fobsd-smoke:
	$(GO) test ./cmd/fobsd -run TestFobsdSmokeSIGKILL -count=1 -v

# Short fuzz pass over every decoder fuzz target: the committed seed corpus
# plus 10 seconds of exploration each. A format regression that survives the
# unit tests rarely survives this.
fuzz-smoke:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeData -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeAck -fuzztime 10s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeControl -fuzztime 10s
	$(GO) test ./internal/xfer -run '^$$' -fuzz FuzzDecodeManifest -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz FuzzReadEvents -fuzztime 10s

verify: tier1 vet race shuffle fuzz-smoke
