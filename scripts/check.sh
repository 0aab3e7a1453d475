#!/bin/sh
# CI gate: formatting, vet, and the full test suite under the race detector
# (the compiler's parallel per-function backend must stay race-clean).
# Equivalent to `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:"
	echo "$unformatted"
	exit 1
fi

echo "== one home per decision (no deprecated shim, no tier arbiter, one latency switch, one way to arm and to run a batch, one executor for every tier)"
# Tier is the only spelling of how a run executes, and mach.Config.Latency the
# only timing model outside the verifier's own copy (internal/schedcheck).
# bench/ is the frozen harness and is not ours to gate.
gosrc() { grep -rE --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build "$@" .; }
if gosrc -n 'Deprecated:|\b(ResolveTier|ErrTierConflict)\b'; then
	echo "check: a deprecated shim or the boolean tier arbiter is back"
	exit 1
fi
if gosrc -l --exclude='*_test.go' 'LatFMul' | grep -v -e '^\./internal/mach/' -e '^\./internal/schedcheck/'; then
	echo "check: a second definition of the latency switch (use mach.Config.Latency)"
	exit 1
fi

# A run is a batch and a tier becomes a certificate in one place: no second
# arming function beside core.Artifact.Arm, no per-call containment wrapper
# beside Machine.slice, no user-set switch between two ways to run a batch.
if gosrc -n --exclude='*_test.go' '\b(armTier|advanceContained|[Tt]enancy)\b'; then
	echo "check: a second way to arm a tier, contain a slice or run a batch is back (core.Artifact.Arm, vliw.Machine.slice; K machines is K /run requests)"
	exit 1
fi
if gosrc -n --exclude='*_test.go' 'Use(Safe|Native)?Certificate\(' | grep -v -e '^\./internal/vliw/' -e '^\./internal/core/artifact\.go:'; then
	echo "check: a Use*Certificate call outside internal/vliw and core.Artifact.Arm (arm through Artifact.Arm, RunOn or RunManyOn)"
	exit 1
fi

# A tier says which checks a certificate has removed, never which executor
# runs: every context runs regions (Machine.advance), and hooked() is the only
# thing that keeps one on the per-word path.
if grep -rnE --include='*.go' --exclude='*_test.go' 'tier == TierNative' internal/vliw; then
	echo "check: internal/vliw chooses an executor by tier again (slice calls advance for every tier; c.tier only says which verdicts remain)"
	exit 1
fi

# A plan belongs to its image, not to a machine: vliw.Plan decodes an image once
# (Plan.decode, the one caller of buildPlan) and keeps its one certified copy
# (Plan.certified, the one caller of buildSafePlan), for every machine pointed
# at it. A machine that builds either for itself is the single-slot cache again.
if grep -rnE --include='*.go' --exclude='*_test.go' --exclude='plan.go' 'build(Safe)?Plan\(' internal/vliw; then
	echo "check: internal/vliw builds a plan outside plan.go (Reset onto a Plan; arm through Plan.certified)"
	exit 1
fi
for fn in buildPlan buildSafePlan; do
	calls=$(grep -E "\\b$fn\\(" internal/vliw/plan.go | grep -cvE '^(func |//)')
	if [ "$calls" != 1 ]; then
		echo "check: $fn has $calls callers in internal/vliw/plan.go, want one (Plan.decode, Plan.certified)"
		exit 1
	fi
done

echo "== one write pipeline, one value file, one micro-op stream (no second fetch, no ring ingest, no pending-write slice, no closure per operation, no banked register arrays in the simulator)"
if grep -rnE --include='*.go' --exclude='*_test.go' 'nFetch|nRingIngest|\[\]pendingWrite|nChain|native +\[2\]nativeOp' internal/vliw; then
	echo "check: internal/vliw forks the write pipeline or the word prologue again (Context.push, Machine.step, regions)"
	exit 1
fi
# A register and a scratch slot are indexes of one array (Context.vals,
# indexed by mach.PReg.Index): no banked files to switch over, no closure
# builders forked by bank, no second set of closures for a write that goes
# straight to its register, no speculative twin of the guard-free load.
if grep -rnE --include='*.go' --exclude='*_test.go' 'iregs|fregs|\.sf\[|\.bb\[|nStraight|iregArg|fregArg|opSafeSpec' internal/vliw; then
	echo "check: internal/vliw keeps registers outside the value file, or forks a closure builder by bank or by destination again"
	exit 1
fi
# A region is one stream of micro-op records walked by runRegion's switch: no
# closure type, no builder that returns one, no func(m, c) error literal.
if grep -rnE --include='*.go' --exclude='*_test.go' '\b(nativeOp|nFastShape|nPure|nConst)\b|func\(m \*Machine, c \*Context\) error' internal/vliw; then
	echo "check: internal/vliw translates an operation into a closure again (a slot is a uop record: see translate in plan.go, regionBuilder.issue)"
	exit 1
fi
# An operation is translated once (translate) and every kind has one executor
# (Machine.exec, with runRegion's inlined shapes): no second interpreter beside
# it, no synthetic plan opcodes, no per-op counters beside opBulk, no unit
# remembered on the machine per operation.
if grep -rnE --include='*.go' --exclude='*_test.go' '\b(execOp|execBranch|execLoad|execStore|planKind|safeKind|countLoad|countStore|curUnit|opPure|opPureFlop|opSafe\w+)\b' internal/vliw; then
	echo "check: internal/vliw grows a second executor, translation or counting rule again (Machine.exec, translate, opBulk)"
	exit 1
fi
# Regions only observe the caches, the TLBs and the banks; step (with fetch,
# refillICache and dtlbMiss under it) is the one place that fills them or
# charges a beat the schedule did not plan. reset, Restore and
# ContextSwitch's flush set them wholesale.
if awk '
	/^func / { fn = $0; sub(/^func +(\([^)]*\) +)?/, "", fn); sub(/[(\[].*/, "", fn) }
	/(itags|dtlb)\[[^]]*\] *=[^=]|Stats\.(BankStalls|RefillBeats|TrapBeats) *(\+\+|\+=|=[^=])/ {
		if (fn !~ /^(fetch|refillICache|dtlbMiss|step|reset|Restore|ContextSwitch)$/) { print FILENAME ":" FNR ": in " fn ": " $0; bad = 1 }
	}
	END { exit !bad }
' $(ls internal/vliw/*.go | grep -v _test.go); then
	echo "check: internal/vliw fills a cache or TLB, or charges an unplanned beat, outside Machine.step"
	exit 1
fi

echo "== the allocator owns its storage (no cloned register sets, no per-register hash maps in regalloc.go)"
if grep -nE 'ir\.RegSet|\.Clone\(\)|map\[VReg\]' internal/tsched/regalloc.go; then
	echo "check: internal/tsched/regalloc.go is back to cloned ir.RegSets or map[VReg] tables (rows of allocator.before/after/adj)"
	exit 1
fi

echo "== one home for the optimisation level (opt.Level)"
if gosrc -n --exclude='*_test.go' 'UnrollFactor: 4' | grep -v -e '^\./internal/opt/' -e '^\./internal/xp/'; then
	echo "check: the -O1 options are spelled out again (use opt.Level)"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go test -race"
# Measured on the 2-vCPU reference host: the whole suite takes 4m22s under
# the race detector, and the two slowest packages — internal/fuzz (the
# four-way tier matrix: every seed on checked/fast/safe/native) and
# internal/safecheck (the 246-image golden matrix) — take 120 s and 117 s.
# The per-package budget is 5x that: on a slower shared 2-vCPU host
# internal/vliw alone took 7m43 at PR 22's head and takes ~8m with PR 23's
# hand-built-word tests (microop_test.go, the TestRegion* cases: +14 s). At
# PR 26 internal/vliw took 472 s in this stage in a quiet hour and, alone, 564 s
# (parent) and 596 s (change) in a busy one — too close to 10m, hence 20m.
go test -race -timeout 20m ./...

echo "== bench smoke (the benchmark's own module: vet, unit tests + a short run of all four workloads)"
# bench/ is frozen between benchmark PRs and names our API (tiers, Use*
# certificates, serve wire types): a change that breaks it must fail here.
(cd bench && go vet . && go test .)

echo "== go test -race, focused: simulator tiers/contexts/snapshots + serving layer"
# The suite above already runs these packages once under -race, but cached
# results satisfy it on re-runs; -count=1 forces the two packages with real
# cross-goroutine traffic (pooled machines, hardware contexts, snapshot
# store, plans shared by every machine that runs an artifact) to re-execute
# under the detector every time.
go vet ./internal/vliw/ ./internal/serve/
go test -race -count=1 -timeout 20m ./internal/vliw/ ./internal/serve/
# One plan is run by many machines at once, and its region table is built while
# others run it: the one test whose whole point is the detector, several times
# over, because a race shows only in the interleavings a run happens to take.
go test -race -count=5 -run 'TestSharedPlanConcurrentRuns' ./internal/vliw/

echo "== tracelint (static schedule + safety verification: examples + the 38 ledger programs x O0/O1/O2 x Trace 7/14/28)"
# bench/programs is read, never written. The generated gen*.mf programs are
# the ones with nested calls, float returns and syscalls in loops. The one
# cell the allocator refuses for want of registers is named: any other
# capacity rejection fails the stage.
go run ./cmd/tracelint -matrix -safety -skip gen16.mf:O2/trace7 examples/*.mf bench/programs/*.mf
echo "== tracelint (checked-in fuzz corpus)"
go run ./cmd/tracelint -corpus internal/fuzz/testdata/fuzz/FuzzDifferential/*

echo "== certified fast path smoke (fast/safe vs checked agree: examples x O0/O1/O2 x Trace 7/14/28)"
go test -run TestFastCheckedAgree -count=1 .

echo "== native tier smoke (regions of micro-ops vs checked agree: examples x O0/O1/O2 x Trace 7/14/28)"
go test -run TestNativeCheckedAgree -count=1 .

echo "== hardware contexts smoke (examples x K=1/2/4 time-shared)"
go build -o /tmp/tracesim.check ./cmd/tracesim
for ex in examples/*.mf; do
	for k in 1 2 4; do
		/tmp/tracesim.check -contexts "$k" "$ex" >/dev/null ||
			{ echo "tracesim -contexts $k $ex failed"; exit 1; }
	done
done
echo "== checkpoint/restore smoke (examples x O0/O2 x 3 split beats vs one-shot run)"
snapdir=$(mktemp -d)
for ex in examples/*.mf; do
	for o in 0 2; do
		/tmp/tracesim.check -O "$o" "$ex" >"$snapdir/ref.out"
		for at in 1 2000 200000; do
			rm -f "$snapdir/run.snap"
			/tmp/tracesim.check -O "$o" -snapshot-at "$at" \
				-snapshot-file "$snapdir/run.snap" "$ex" >"$snapdir/split.out"
			# A split past the end of the run completes instead of pausing
			# and writes no snapshot; either way the (possibly stitched)
			# output must be byte-identical to the uninterrupted run.
			if [ -f "$snapdir/run.snap" ]; then
				/tmp/tracesim.check -O "$o" -resume "$snapdir/run.snap" "$ex" >>"$snapdir/split.out"
			fi
			diff "$snapdir/ref.out" "$snapdir/split.out" >/dev/null ||
				{ echo "checkpoint smoke: $ex -O$o split@$at diverges from the one-shot run"; exit 1; }
		done
	done
done
rm -rf "$snapdir"
rm -f /tmp/tracesim.check

echo "== tracefuzz smoke (4-way tier matrix: checked/fast/safe/native + K=4 timeshare oracle)"
go run ./cmd/tracefuzz -seed 1 -n 200 -tier=native -timeshare

echo "== tracefuzz checkpoint oracle (random-beat splits, checked/fast/native)"
go run ./cmd/tracefuzz -seed 1 -n 50 -tier=native -snapshot

echo "== tracesrv smoke (compile/run/lint round-trips + graceful shutdown)"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/tracesrv" ./cmd/tracesrv
go build -o "$bin/srvsmoke" ./cmd/srvsmoke
"$bin/tracesrv" -addr 127.0.0.1:0 -port-file "$bin/port" &
srv=$!
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
	[ -s "$bin/port" ] && break
	sleep 0.25
done
[ -s "$bin/port" ] || { echo "tracesrv: never wrote port file"; kill "$srv" 2>/dev/null; exit 1; }
"$bin/srvsmoke" -addr "$(cat "$bin/port")" -src examples/fib.mf
kill -TERM "$srv"
if wait "$srv"; then
	echo "tracesrv: drained cleanly"
else
	echo "tracesrv: non-zero exit on SIGTERM drain"
	exit 1
fi

echo "== go test -fuzz (10s per target)"
go test ./internal/fuzz -run=^$ -fuzz=FuzzDifferential -fuzztime=10s
go test ./internal/fuzz -run=^$ -fuzz=FuzzGen -fuzztime=10s
go test ./internal/vliw -run=^$ -fuzz=FuzzSnapshotRestore -fuzztime=10s
go test ./internal/isa -run=^$ -fuzz=FuzzImageDecode -fuzztime=10s

echo "== ok"
