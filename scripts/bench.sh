#!/bin/sh
# Tracked simulator benchmark: runs BenchmarkSimulator (checked),
# BenchmarkSimulatorFast/FastCtx (certified), BenchmarkSimulatorSafe
# (guard-free under a safety certificate), BenchmarkSimulatorNative
# (hot runs of words fused into regions, one micro-op stream each),
# BenchmarkSimulatorKernels (tridiag and fir, the two kernels that are most
# of numeric-hot's words, checked and native), and
# BenchmarkSimulatorContexts (K=4 time-shared hardware contexts) with
# fixed -benchtime/-count so runs are comparable across commits, plus one
# pass of the cold-path micro-benchmarks (BenchmarkSafecheckAnalyze,
# BenchmarkTschedCompile), then emits BENCH_sim.json via benchjson,
# comparing against the committed seed baseline
# (scripts/bench_baseline.txt).
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_sim.json}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Three full-suite passes instead of one pass with -count=3: -count runs a
# benchmark's repetitions back-to-back, so a slow stretch of the machine
# lands entirely on whichever benchmark was up. Interleaving whole passes
# spreads each benchmark's samples across the run; benchjson averages per
# name over the concatenated output.
for _ in 1 2 3; do
	go test -run '^$' -bench 'Simulator' -benchtime=2s -count=1 -benchmem .
done | tee "$raw"
# The cold path — what a request pays before its first beat: the safety
# analysis and the trace scheduler on fft, matmul, scanner and one generated
# program. One short pass: the number gated here is bytes allocated per
# analysis, which repeats to within a few hundred bytes.
go test -run '^$' -bench 'SafecheckAnalyze|TschedCompile' -benchtime=5x -count=1 . | tee -a "$raw"
# Six floors. The certified fast path has to hold its committed baseline
# (10% noise floor — the checkpoint/restore and safety machinery must cost
# nothing when unused), and so does the native tier, against its own history.
# The checked interpreter has to keep what sharing the native tier's retire
# ring bought it — at least 1.20x the baseline recorded while it still scanned
# a pending-write queue every beat. The safe tier has to actually cash in its
# deleted guards: at least as fast as the fast tier on the same corpus. And
# since the native tier runs regions it has to be worth its code next to the
# interpreter — at least 1.86x the checked tier on the same kernel, measured
# within the run. That is 0.85 of the 2.19 that was the lowest of three runs
# of this script (about 2.2, 2.19, 2.43; BENCH_sim.json records the last) when the
# interpreter began to run the regions' records; it was 0.85 of 2.50, and the
# ratio fell because BenchmarkSimulator rose — daxpy checked 20.7M -> 21.5-22.6M
# beats/s with operands resolved at plan build — not because the native tier
# slowed, which its own 0.90 floor above guards. And it must do so while
# allocating nothing per run once its regions are
# built, on daxpy, tridiag and fir (allocs/op repeats exactly; the native
# benchmarks warm up first).
#
# The B/op ceilings hold safecheck to states it owns: an analysis allocates
# one pooled state per reachable word (plus the ones a descending round is
# rebuilding), each sized by the registers the image names — 9.6 MB for
# matmul, 59 MB for fft today, ceilings ~30 % above. States passed by value,
# or fresh state arrays per descending round, cost words × 28 KB × rounds —
# gigabytes on the same kernels — and trip this at once. The trace scheduler
# is held the same way: its register allocator keeps liveness and the
# interference graph in flat slabs over the registers a function names, and its
# list scheduler keeps per-register state in one table per function, 2.9 MB a
# compile for matmul, 9.4 MB for fft, 3.9 MB for scanner, 6.4 MB for gen07
# (to within 100 bytes run to run), ceilings ~30 % above; a register set
# cloned per instruction put fft at 310 MB. No ns/op threshold: bytes repeat,
# nanoseconds on a shared host do not.
go run ./cmd/benchjson -baseline scripts/bench_baseline.txt \
	-require 'BenchmarkSimulatorFast=0.90,BenchmarkSimulatorNative=0.90,BenchmarkSimulator=1.20' \
	-require-ratio 'BenchmarkSimulatorFast/BenchmarkSimulatorSafe=1.00,BenchmarkSimulator/BenchmarkSimulatorNative=1.86' \
	-require-max 'BenchmarkSimulatorNative:allocs/op=0,BenchmarkSimulatorKernels/tridiag/native:allocs/op=0,BenchmarkSimulatorKernels/fir/native:allocs/op=0,BenchmarkSafecheckAnalyze/matmul:B/op=13000000,BenchmarkSafecheckAnalyze/fft:B/op=78000000,BenchmarkSafecheckAnalyze/scanner:B/op=24000000,BenchmarkSafecheckAnalyze/gen07:B/op=25000000,BenchmarkTschedCompile/matmul:B/op=3800000,BenchmarkTschedCompile/fft:B/op=12300000,BenchmarkTschedCompile/scanner:B/op=5100000,BenchmarkTschedCompile/gen07:B/op=8300000' \
	-o "$out" "$raw"
echo "wrote $out"
