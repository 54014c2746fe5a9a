# Restartable Atomic Sequences — reproduction of Bershad, Redell & Ellis,
# "Fast Mutual Exclusion for Uniprocessors" (ASPLOS 1992).

GO ?= go

.PHONY: all build test race cover bench tables chaos recovery smp persist journal server rmr resilience examples check fuzz fmt lint vet clean tier1

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Everything CI gates on: compile, static checks, tests, race detector.
tier1: build vet test race

cover:
	$(GO) test -cover ./internal/...

# One Go benchmark per paper table plus the extension studies.
bench:
	$(GO) test -bench=. -benchmem .

# The same tables as human-readable output (see EXPERIMENTS.md).
tables:
	$(GO) run ./cmd/rasbench -iters 50000

# One rule per extension table; each runs `rasbench -table <name>`
# (see EXPERIMENTS.md and `rasbench -list`):
#   chaos       seeded fault-injection sweep; failures print a one-line
#               seed reproducer (E18)
#   recovery    thread-kill sweeps on both substrates, checkpoint replay,
#               crash restore, >= 1000 schedules (E19)
#   smp         §7 hybrid RAS+spinlock vs spinlock vs ll/sc across CPU
#               counts (E21)
#   persist     NVRAM volatile-crash sweeps and the crash-at-every-flush
#               walk (E23)
#   journal     undo vs redo WAL costs, torn-crash sweeps, memfs replay (E24)
#   server      per-CPU request plane vs the global mutex queue (E25)
#   rmr         queue-lock remote references per passage (E26)
#   resilience  crash-restart supervision campaigns (E27)
# The model-checker walks behind these tables run in `make test` and
# `make check`.
chaos recovery smp persist journal server rmr resilience:
	$(GO) run ./cmd/rasbench -table $@

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/mechanisms
	$(GO) run ./examples/guestasm
	$(GO) run ./examples/producer_consumer
	$(GO) run ./examples/parthenon
	$(GO) run ./examples/waitfree
	$(GO) run ./examples/rseq

# Schedule-space model checking: the canned rascheck suite exhaustively
# verifies the paper's sequences (and catches the planted defects) across
# all three substrates. Counterexamples land in mcheck-out/ as replayable
# .sched files (rasvm -replay-sched, rascheck -replay).
check:
	$(GO) run ./cmd/rascheck -suite -out mcheck-out

# Every fuzz target, FUZZTIME each (CI runs `make fuzz FUZZTIME=20s`).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) ./internal/asm/
	$(GO) test -run '^$$' -fuzz=FuzzAsm -fuzztime=$(FUZZTIME) ./internal/asm/
	$(GO) test -run '^$$' -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/asm/
	$(GO) test -run '^$$' -fuzz=FuzzStepPredecoded -fuzztime=$(FUZZTIME) ./internal/vmach/
	$(GO) test -run '^$$' -fuzz=FuzzMemoryDigest -fuzztime=$(FUZZTIME) ./internal/vmach/
	$(GO) test -run '^$$' -fuzz=FuzzMemoryCrash -fuzztime=$(FUZZTIME) ./internal/vmach/
	$(GO) test -run '^$$' -fuzz=FuzzRecognizer -fuzztime=$(FUZZTIME) ./internal/vmach/kernel/
	$(GO) test -run '^$$' -fuzz=FuzzCheckpoint -fuzztime=$(FUZZTIME) ./internal/vmach/kernel/
	$(GO) test -run '^$$' -fuzz=FuzzKernelRun -fuzztime=$(FUZZTIME) ./internal/vmach/kernel/
	$(GO) test -run '^$$' -fuzz=FuzzStepUpTo -fuzztime=$(FUZZTIME) ./internal/vmach/kernel/
	$(GO) test -run '^$$' -fuzz=FuzzSMPCheckpoint -fuzztime=$(FUZZTIME) ./internal/vmach/smp/
	$(GO) test -run '^$$' -fuzz=FuzzChaosPlan -fuzztime=$(FUZZTIME) ./internal/chaos/
	$(GO) test -run '^$$' -fuzz=FuzzInjectorNext -fuzztime=$(FUZZTIME) ./internal/chaos/
	$(GO) test -run '^$$' -fuzz=FuzzSwitchWalker -fuzztime=$(FUZZTIME) ./internal/mcheck/
	$(GO) test -run '^$$' -fuzz=FuzzMount -fuzztime=$(FUZZTIME) ./internal/journal/

fmt:
	gofmt -w .

# What CI's lint job runs: formatting check (fails on diff) + vet.
lint:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "files need gofmt:" >&2; echo "$$diff" >&2; exit 1; fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
