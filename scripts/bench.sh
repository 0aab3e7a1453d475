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
# BenchmarkTschedCompile) and of the reference machines (BenchmarkReference),
# then emits BENCH_sim.json via benchjson,
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
# The reference machines every benchmark set-up rebuilds: the IR interpreter,
# and the scalar and scoreboard baselines driven by it, one pass over the 38
# ledger programs per op. Gated below: allocs/op (a call allocates nothing) and
# the scalar baseline's time against the bare interpreter's.
go test -run '^$' -bench 'Reference' -benchtime=20x -count=1 . | tee -a "$raw"
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
# one pooled state per live edge that leaves a block (a run of words each
# entered only by the fallthrough from the one before) and per loop head,
# each sized by the registers the image names — 0.68 MB for matmul, 1.80 MB
# for fft, 1.79 MB for scanner, 1.47 MB for gen07 as measured. The ceilings
# sit about 1.4x above. One state per CFG edge read 1.27, 18.4, 4.24 and
# 7.20 MB and trips them; states passed by value, or fresh state arrays per
# iteration, cost words × 28 KB × rounds — gigabytes on the same kernels. The
# trace scheduler is held the same way: its register allocator keeps
# liveness and the interference graph in flat slabs over the registers a
# function names, its list scheduler keeps per-register state in one table
# per function and presizes each trace's placements, the dead-op sweep
# filters in place, and the disambiguator compares two addresses without
# building their difference: 2.03 MB a compile for matmul, 7.77 MB for fft,
# 2.92 MB for scanner, 3.90 MB for gen07 as measured (to within 100 bytes
# run to run), so the ceilings sit about 1.4x above; growing the placements
# from nil and a fresh slice per block per sweep read 2.60, 9.18, 3.54 and
# 4.82 MB, and a register set cloned per instruction put fft at 310 MB. No
# ns/op threshold: bytes repeat, nanoseconds on a shared host do not.
#
# The reference machines keep every call's registers and ready times in one
# slab per run and resolve callees through one index: 464–478 allocs a pass
# for the interpreter (a 1 MiB memory, the globals' map and the output of each
# of 38 programs), 703–732 for the scalar baseline and 950–962 for the
# scoreboard as measured, so the ceilings sit about 25 % above. A fresh
# register slice per call read 48 634–48 639, 49 371–49 380 and 49 640–49 648.
# The one ns/op gate is a ratio within the run: the scalar baseline is the
# interpreter plus the timing of each straight run of ops it hands over, and
# that timing may cost at most as much as interpreting the ops. Nine runs of
# this line on the 2-vCPU reference host read 1.47–1.88x; with a map lookup
# per operand and the configuration copied per op it read 5.0–8.3x.
go run ./cmd/benchjson -baseline scripts/bench_baseline.txt \
	-require 'BenchmarkSimulatorFast=0.90,BenchmarkSimulatorNative=0.90,BenchmarkSimulator=2.26' \
	-require-ratio 'BenchmarkReference/interp/BenchmarkReference/scalar=0.50' \
	-require-max 'BenchmarkSimulator:allocs/op=0,BenchmarkSimulatorNative:allocs/op=0,BenchmarkSimulatorKernels/tridiag/checked:allocs/op=0,BenchmarkSimulatorKernels/fir/checked:allocs/op=0,BenchmarkSimulatorKernels/tridiag/native:allocs/op=0,BenchmarkSimulatorKernels/fir/native:allocs/op=0,BenchmarkImageSwitch/checked:allocs/op=1,BenchmarkImageSwitch/native:allocs/op=1,BenchmarkSafecheckAnalyze/matmul:B/op=960000,BenchmarkSafecheckAnalyze/fft:B/op=2500000,BenchmarkSafecheckAnalyze/scanner:B/op=2500000,BenchmarkSafecheckAnalyze/gen07:B/op=2060000,BenchmarkTschedCompile/matmul:B/op=2850000,BenchmarkTschedCompile/fft:B/op=10900000,BenchmarkTschedCompile/scanner:B/op=4100000,BenchmarkTschedCompile/gen07:B/op=5460000,BenchmarkReference/interp:allocs/op=600,BenchmarkReference/scalar:allocs/op=900,BenchmarkReference/scoreboard:allocs/op=1200' \
	-o "$out" "$raw"
echo "wrote $out"
