# Repro of "Distributed Public Key Schemes Secure against Continual
# Leakage" (PODC 2012). Pure Go, no external dependencies.

GO ?= go

.PHONY: all build bench-build test race race-par race-server race-rotation vet lint lint-self fmt-check bench bench-smoke fuzz-smoke ci baseline profile clean

all: build

build:
	$(GO) build ./...

# bench-build vets and compiles loadbench/, the decrypt-service
# benchmark. It is a module of its own (it replaces repro with ../), so
# `go build ./...` at the root never sees it, and a root change that
# breaks it would otherwise pass CI and fail only when the benchmark
# runs. GOFLAGS is cleared and GOPROXY disabled, as loadbench/run.sh
# does, so the build uses only this checkout.
bench-build:
	cd loadbench && GOFLAGS= GOPROXY=off $(GO) vet ./... && GOFLAGS= GOPROXY=off $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-par is the focused race pass over the packages that fan work
# out across goroutines (the fan-out helpers, the chunked
# multi-pairings, the batched-decryption pipeline). A subset of `race`
# — useful while iterating on parallel code without paying for the
# full suite.
race-par:
	$(GO) test -race -count=1 ./internal/par ./internal/bn254 ./internal/dlr

# race-server is the focused race pass over the serving stack: the
# batch-window server, the mux framing under it and the striped tenant
# store. A subset of `race`. The dlr protocol layer the server drains
# windows through is left out: `race` already runs its whole suite,
# and race-rotation its refresh-during-window race tests.
race-server:
	$(GO) test -race -count=1 ./internal/server ./internal/wire ./internal/storage

# race-rotation is the rotation race gate: the rotation storm and
# scheduler tests and dlr's refresh-during-window tests (the
# epoch-invalidation tests of the pipelined rotation). Run while
# iterating on rotation code.
race-rotation:
	$(GO) test -race -count=1 -run 'TestRotation|TestServerRefresh' ./internal/server ./internal/dlr

vet:
	$(GO) vet ./...

# lint runs dlrlint, the repo's own static-analysis suite (see
# internal/lint): secret-taint tracking, ...Into aliasing contracts,
# //dlr:noalloc hot-path allocation checks, unchecked wire/storage
# decodes, and the concurrency & lifecycle pack — //dlr:atomic access
# discipline, //dlr:guarded-by / //dlr:lock-order lock discipline,
# //dlr:zeroize exit-path checks, and //dlr:borrowed payload ownership.
# Non-zero exit on any finding (stale ignore directives included).
lint:
	$(GO) run ./cmd/dlrlint ./...

# lint-self runs the analyzers over their own implementation and the
# CLI, so the linter's code is held to the contracts it enforces.
lint-self:
	$(GO) run ./cmd/dlrlint ./internal/lint ./cmd/dlrlint

# fmt-check fails if any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# ci is the tier-1 gate: build, the loadbench compile check
# (bench-build), vet, dlrlint (module then self-lint), gofmt
# cleanliness, the full test suite under the race detector (the
# protocol stack fans work out across goroutines), a race pass over the
# serving stack (race-server), the rotation race gate (race-rotation),
# and a short differential fuzz pass over the lazy-tower and Pippenger
# twins. Lint runs before the race passes
# on purpose: static findings fail in seconds, the race suite takes
# minutes — fail fast on the cheap gate. Timing-sensitive bench
# regression checks are opt-in: CI_BENCH=1 make ci additionally fails
# if any hot operation regressed >25% against the committed
# bench_baseline.json.
ci: build bench-build vet lint lint-self fmt-check race race-server race-rotation fuzz-smoke
ifeq ($(CI_BENCH),1)
	$(MAKE) bench-smoke
endif

# fuzz-smoke gives each differential fuzz target a short budget on top
# of its committed seed corpus: enough to exercise the lazy-reduction
# and bucket-method paths against their twins on every CI run without
# turning CI into a fuzzing campaign. (`go test -fuzz` accepts a single
# target per invocation, hence one line per target.)
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzFp2Mul -fuzztime=$(FUZZTIME) ./internal/ff
	$(GO) test -run=^$$ -fuzz=FuzzFp6Mul -fuzztime=$(FUZZTIME) ./internal/ff
	$(GO) test -run=^$$ -fuzz=FuzzFpInverse -fuzztime=$(FUZZTIME) ./internal/ff
	$(GO) test -run=^$$ -fuzz=FuzzMultiExp -fuzztime=$(FUZZTIME) ./internal/bn254
	$(GO) test -run=^$$ -fuzz=FuzzPointCompressed -fuzztime=$(FUZZTIME) ./internal/bn254
	$(GO) test -run=^$$ -fuzz=FuzzGLVDecompose -fuzztime=$(FUZZTIME) ./internal/scalar
	$(GO) test -run=^$$ -fuzz=FuzzFrameRoundTrip -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzCiphertextFromBytes -fuzztime=$(FUZZTIME) ./internal/dlr

# bench-smoke re-times the fast-path operations and fails if any of them
# regressed more than 25% against the committed baseline snapshot.
bench-smoke:
	$(GO) run ./cmd/dlrbench -smoke bench_baseline.json

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# baseline re-snapshots the fast-path timings compared against in
# EXPERIMENTS.md. Run on a quiet machine and commit the result.
baseline:
	$(GO) run ./cmd/dlrbench -baseline bench_baseline.json

# profile captures CPU and heap profiles of the full experiment suite.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`
# (`top`, `list <func>`, `web`); the heap profile is taken after a
# final GC, so it shows retained memory, not transient churn — use the
# E14 table / bench-smoke bytes column for per-op traffic.
profile:
	$(GO) run ./cmd/dlrbench -cpuprofile cpu.pprof -memprofile mem.pprof

clean:
	$(GO) clean ./...
	rm -f cpu.pprof mem.pprof
