GO ?= go
FUZZTIME ?= 10s
COVER_FLOOR ?= 70

.PHONY: all build test vet fmt no-net race bench-smoke bench-tests fuzz cover kill-resume examples check ci

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would rewrite any file, listing them.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmt: gofmt would reformat:"; echo "$$out"; exit 1; fi; \
	echo "fmt: gofmt clean"

# Dependency gate: the simulator opens no socket, and a run is observed only
# through the files it writes, so no package of the module may link net or
# net/http (which would also pull crypto/tls into every binary).
no-net:
	@deps=$$($(GO) list -deps ./...) || exit 1; \
	bad=$$(echo "$$deps" | grep -xE 'net|net/http'); \
	if [ -n "$$bad" ]; then echo "no-net: the module links" $$bad; exit 1; fi; \
	echo "no-net: no package links net or net/http"

# Every package under the race detector. The experiments and engine suites
# dominate its wall time (5 and 3.5 minutes of a 6-minute pass on 2 vCPUs).
race:
	$(GO) test -race -timeout 30m ./...

# One iteration per benchmark with telemetry collection on: smoke-checks that
# every bench still runs AND that the per-phase span pipeline works end to end
# (the experiment benches record into a shared registry, the snapshot lands in
# bench_telemetry.json, and benchjson renders its phase table). Wired into ci.
bench-smoke:
	G2G_BENCH_TELEMETRY=$(CURDIR)/bench_telemetry.json $(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/benchjson -phases bench_telemetry.json
	@rm -f bench_telemetry.json

# The benchmark module's own tests. g2gbench/ is a module of its own that
# imports this one's internal packages, so `go test ./...` at the root does
# not reach it, and a change to those packages can break it unseen.
bench-tests:
	cd g2gbench && $(GO) test ./...

# Native fuzzing over every parser/validator entry point. Go allows one
# -fuzz target per invocation, so each runs for FUZZTIME in turn. Plain
# `go test` already replays the committed seed corpora.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzParseBinaryTrace -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalSigned -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzParseKind -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzParamsValidate -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzProofMemo -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzDeclineRecord -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzFQRecord -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzSignMemo -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzVerifyMemo -fuzztime=$(FUZZTIME) ./internal/wire

# Coverage with a per-package floor (COVER_FLOOR percent) over the library
# packages. The profile lands in cover.out for `go tool cover -html`.
cover:
	$(GO) test -coverprofile=cover.out ./internal/... . >cover.txt; \
	status=$$?; cat cover.txt; \
	if [ $$status -ne 0 ]; then rm -f cover.txt; exit $$status; fi
	@awk -v floor=$(COVER_FLOOR) '/coverage:/ && $$1 == "ok" { \
		pct = $$5; sub(/%$$/, "", pct); \
		if (pct + 0 < floor) { printf "cover: %s below floor (%s%% < %d%%)\n", $$2, pct, floor; bad = 1 } \
	} END { exit bad }' cover.txt && echo "cover: all packages >= $(COVER_FLOOR)%"
	@rm -f cover.txt

# Crash-safety gate run against the real CLI: an audited 3-repeat sweep on
# one worker is killed (SIGTERM) once its journal holds a completed repeat,
# then resumed with -resume, which restores the journaled repeats and runs
# the others from their beginning. The resumed journal's (index, digest)
# pairs and the resumed stdout must equal an uninterrupted reference sweep's
# (the determinism contract; see DESIGN.md "Crash recovery"). It runs once
# per G2G protocol family, G2G Epidemic and G2G Delegation. The kill waits
# for the sweep's own progress rather than a wall-clock delay, so it lands
# while a later repeat runs on a slow or a fast host. The poll gives up after
# 60 s or when the sweep exits. The gate fails when nothing was journaled
# before the kill, when the sweep finished before it, or when the resume ran
# a journaled repeat again (more than 3 entries). Repeat 0's digest is pinned
# per family.
kill-resume:
	@dir=$$(mktemp -d); \
	$(GO) build -o $$dir/g2gsim ./cmd/g2gsim || { rm -rf $$dir; exit 1; }; \
	pairs() { sed -n 's/.*"index":\([0-9]*\),.*"digest":"\([0-9a-f]*\)".*/\1 \2/p' "$$1" | sort -n; }; \
	for spec in g2g-epidemic:770a2e5698553b63 g2g-delegation-frequency:f300c843adc45164; do \
	  proto=$${spec%%:*}; pin=$${spec#*:}; \
	  run="$$dir/g2gsim -preset infocom05 -protocol $$proto -audit -seed 7 -repeats 3 -jobs 1"; \
	  rm -rf $$dir/ref $$dir/ckpt; \
	  $$run -checkpoint-dir $$dir/ref >$$dir/ref.out 2>$$dir/ref.err && \
	  pairs $$dir/ref/sweep.journal >$$dir/ref.pairs && \
	  { head -1 $$dir/ref.pairs | grep -q "^0 $$pin" || { echo "kill-resume: $$proto: repeat 0's digest does not begin $$pin"; false; }; } && \
	  { $$run -checkpoint-dir $$dir/ckpt >$$dir/int.out 2>$$dir/int.err & \
	    pid=$$!; i=0; \
	    while ! grep -qs '"digest"' $$dir/ckpt/sweep.journal && [ $$i -lt 1200 ] && kill -0 $$pid 2>/dev/null; do sleep 0.05; i=$$((i+1)); done; \
	    kill -TERM $$pid 2>/dev/null; wait $$pid; \
	    n=$$(pairs $$dir/ckpt/sweep.journal | wc -l); \
	    [ $$n -ge 1 ] && [ $$n -lt 3 ] || { echo "kill-resume: $$proto: $$n of 3 repeats journaled at the kill, want 1 or 2"; false; }; } && \
	  $$run -checkpoint-dir $$dir/ckpt -resume >$$dir/res.out 2>$$dir/res.err && \
	  pairs $$dir/ckpt/sweep.journal >$$dir/res.pairs && \
	  { [ $$(wc -l <$$dir/res.pairs) -eq 3 ] || { echo "kill-resume: $$proto: the resume ran a journaled repeat again"; false; }; } && \
	  cmp $$dir/ref.pairs $$dir/res.pairs && cmp $$dir/ref.out $$dir/res.out; \
	  status=$$?; \
	  if [ $$status -ne 0 ]; then echo "kill-resume: $$proto: FAILED"; cat $$dir/*.out $$dir/*.err $$dir/*.pairs 2>/dev/null; break; fi; \
	  echo "kill-resume: $$proto: $$n of 3 repeats journaled at the kill; resumed journal digests and output identical"; \
	done; \
	rm -rf $$dir; \
	exit $$status

# Every example program, run end to end: `go build ./...` only compiles
# them, and an example can fail at run time (examples/audit exits non-zero
# when an honest node is framed). About 10 s on 2 vCPUs, builds excluded.
examples:
	@for d in examples/*/; do \
	  $(GO) run ./$$d >/dev/null || { echo "examples: $$d FAILED"; exit 1; }; \
	  echo "examples: $$d ok"; \
	done

check: build vet test race

# ci is the documented verification entry point: build, vet, the gofmt
# gate, the dependency gate, the coverage floor, the race pass, the benchmark
# module's tests, the benchmark smoke pass, the kill/resume crash-safety
# gate, every example program, a quick-mode experiment smoke run through the
# parallel scheduler, and a fully audited honest run on each preset (the
# auditor fails the command on any invariant violation).
ci: build vet fmt no-net cover race bench-tests bench-smoke kill-resume examples
	$(GO) run ./cmd/g2gexp -experiment secV -quick -jobs 0 >/dev/null
	$(GO) run ./cmd/g2gsim -preset infocom05 -protocol g2g-epidemic -ttl 10m -interval 60s -audit >/dev/null
	$(GO) run ./cmd/g2gsim -preset cambridge06 -protocol g2g-delegation-frequency -ttl 10m -interval 60s -audit >/dev/null
	@echo "ci: OK"
