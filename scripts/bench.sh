#!/bin/sh
# Tracked simulator benchmark: runs BenchmarkSimulator (checked),
# BenchmarkSimulatorFast/FastCtx (certified), BenchmarkSimulatorSafe
# (guard-free under a safety certificate), BenchmarkSimulatorNative
# (hot runs of words fused into regions, one micro-op stream each),
# BenchmarkSimulatorKernels (tridiag and fir, the two kernels that are most
# of numeric-hot's words, checked and native),
# BenchmarkSimulatorContexts (K=4 time-shared hardware contexts) and
# BenchmarkImageSwitch (one machine pointed at four artifacts in turn) with
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
	go test -run '^$' -bench 'Simulator|ImageSwitch' -benchtime=2s -count=1 -benchmem .
done | tee "$raw"
# The cold path — what a request pays before its first beat: the safety
# analysis and the trace scheduler on fft, matmul, scanner and one generated
# program. One short pass: the number gated here is bytes allocated per
# analysis, which repeats to within a few hundred bytes.
go test -run '^$' -bench 'SafecheckAnalyze|TschedCompile' -benchtime=5x -count=1 . | tee -a "$raw"
# The floors. Every tier runs regions, so the three daxpy benchmarks that are
# gated time one executor with fewer and fewer checks, and each is held to the
# committed baseline, not to another tier within the run: the certified fast
# path (10% noise floor — the checkpoint/restore and safety machinery must cost
# nothing when unused), the native tier against its own history, and the
# checked tier at 2.26x the baseline recorded while it was a per-word
# interpreter scanning a pending-write queue every beat. That is 0.85 of the
# lowest of three runs of this script when the checked tier began to run regions
# (3.51, 2.66, 2.86 on a host whose speed moved as much between them: the native
# tier read 1.75, 1.05, 1.39 against its own baseline; a fourth run, in a quiet
# hour, read 4.60 and 1.98 and is what BENCH_sim.json records); it was 1.20
# while the checked tier was the per-word interpreter. Two ratio floors are gone with the fork they
# measured: native at least 1.86x checked within a run is what running regions
# on every tier deliberately collapses — what is left between the two is the
# worth of the certificates, a result (EXPERIMENTS.md) and not a floor — and
# fast no slower than safe read 0.99 and 0.88 on this host while the two were
# one interpreter, and now compares regions with guards against regions without
# under other names. And a run allocates nothing once its regions are built, on
# either tier, on daxpy, tridiag and fir (allocs/op repeats exactly; these
# benchmarks warm up first). Nor does pointing a machine at another artifact:
# a plan and its regions are the artifact's, so BenchmarkImageSwitch — four
# artifacts round-robin on one machine — is held to the one allocation a run
# that is left once the four are warm (the two of the four that print format a
# number and return a string: 4 in 4 runs); a machine that rebuilds anything on
# a switch reads over a thousand (1272 and 1314 while each machine kept the one
# plan of its last image, scripts/bench_baseline.txt). Its ns/op are reported
# against that baseline and not gated: 1.1–1.5x on this host, inside its noise.
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
	-require 'BenchmarkSimulatorFast=0.90,BenchmarkSimulatorNative=0.90,BenchmarkSimulator=2.26' \
	-require-max 'BenchmarkSimulator:allocs/op=0,BenchmarkSimulatorNative:allocs/op=0,BenchmarkSimulatorKernels/tridiag/checked:allocs/op=0,BenchmarkSimulatorKernels/fir/checked:allocs/op=0,BenchmarkSimulatorKernels/tridiag/native:allocs/op=0,BenchmarkSimulatorKernels/fir/native:allocs/op=0,BenchmarkImageSwitch/checked:allocs/op=1,BenchmarkImageSwitch/native:allocs/op=1,BenchmarkSafecheckAnalyze/matmul:B/op=13000000,BenchmarkSafecheckAnalyze/fft:B/op=78000000,BenchmarkSafecheckAnalyze/scanner:B/op=24000000,BenchmarkSafecheckAnalyze/gen07:B/op=25000000,BenchmarkTschedCompile/matmul:B/op=3800000,BenchmarkTschedCompile/fft:B/op=12300000,BenchmarkTschedCompile/scanner:B/op=5100000,BenchmarkTschedCompile/gen07:B/op=8300000' \
	-o "$out" "$raw"
echo "wrote $out"
