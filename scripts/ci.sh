#!/bin/sh
# Local mirror of .github/workflows/ci.yml: tier-1 gate + bench smoke.
set -eux

dune build
dune runtest
dune exec bench/main.exe -- --smoke --json BENCH_smoke.json

# Runtime dataplane gates: the smoke telemetry must show the compiled
# engine agreeing with the interpreter and beating it >= 5x, and the
# engine's counter JSON must be well-formed.
grep -q '"runtime":' BENCH_smoke.json
if grep -q '"speedup_ok": false' BENCH_smoke.json; then
  echo "runtime engine below the 5x speedup gate" >&2
  exit 1
fi
if grep -q '"outputs_and_state_equal": false' BENCH_smoke.json; then
  echo "runtime engine diverged from the interpreter" >&2
  exit 1
fi
if grep -q '"scan_ok": false' BENCH_smoke.json; then
  echo "ordered scan resolved packets on a fully-classified NF" >&2
  exit 1
fi
dune exec bin/nfactor_cli.exe -- run -n 5000 --check snort
dune exec bin/nfactor_cli.exe -- run -n 5000 --json snort | grep -q '"index_hits"'
dune exec bin/nfactor_cli.exe -- run -n 5000 --json portknock | grep -q '"fsm_hits"'

# Sharded dataplane smoke gate: a 2-domain run must reproduce the
# single engine exactly (outputs, merged store, merged counters) on
# both random and churn traffic, and must stay fully dispatched
# (scan_hits 0 on classified NFs).
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --check nat
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --churn 500 --check portknock
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --json nat | grep -q '"scan_hits": 0'

# Dispatch gate, at full packet budgets (speedups are budget-dependent,
# so the smoke run cannot judge them): every stateful NF's
# engine-vs-interpreter speedup, relative to the PR-5 recording, must
# clear the per-NF floor and the geomean threshold (see bench/main.ml
# for the thresholds and their noise rationale).
dune exec bench/main.exe -- --rt --json BENCH_rt.json
if grep -q '"scan_ok": false' BENCH_rt.json; then
  echo "ordered scan resolved packets at full budgets" >&2
  exit 1
fi
if grep -q '"ratio_ok": false' BENCH_rt.json || grep -q '"dispatch_ok": false' BENCH_rt.json; then
  echo "dispatch speedup regressed vs the PR-5 recording" >&2
  exit 1
fi
rm -f BENCH_rt.json

# Shard scaling gate (machine-normalized, core-conditional — see
# bench/main.ml): 2-shard exactness is asserted unconditionally; the
# >= 1.6x @ 2 shards / >= 2.5x @ 4 shards speedup gates only judge
# machines with the cores to run them, and are recorded as skipped
# otherwise.
dune exec bench/main.exe -- --scale --smoke --json BENCH_scale.json
if grep -q '"exact": false' BENCH_scale.json; then
  echo "sharded dataplane diverged from the single engine" >&2
  exit 1
fi
if grep -q '"scale_ok": false' BENCH_scale.json; then
  echo "shard scaling below the speedup gate" >&2
  exit 1
fi
rm -f BENCH_scale.json

# Pass-pipeline cache gate: synthesize the corpus twice through one
# on-disk artifact store. The second run must be a pure replay (zero
# recomputed passes) and must reproduce byte-identical models.
CACHE_DIR=$(mktemp -d)
trap 'rm -rf "$CACHE_DIR"' EXIT
dune exec bin/nfactor_cli.exe -- synth-all --cache-dir "$CACHE_DIR" --json > synth_cold.json
dune exec bin/nfactor_cli.exe -- synth-all --cache-dir "$CACHE_DIR" --json > synth_warm.json
grep -q '"misses": 0' synth_warm.json
grep -q '"hit_rate_pct": 100.0' synth_warm.json
# model_md5 lines must agree between the cold and the warm run
grep '"model_md5"' synth_cold.json > cold_models.txt
grep '"model_md5"' synth_warm.json > warm_models.txt
cmp cold_models.txt warm_models.txt
rm -f synth_cold.json synth_warm.json cold_models.txt warm_models.txt

# Compiled service-chain gates: the linked 3-NF chain must reproduce
# the interpreter chain exactly (outputs, per-hop final stores) on
# random and churn traffic, a sharded chain must reproduce the single
# linked engine, and the invariant verifier must prove a true
# invariant and refute a false one with a counterexample that replays
# through the compiled chain.
dune exec bin/nfactor_cli.exe -- chain run firewall,nat,snort -n 20000 --check
dune exec bin/nfactor_cli.exe -- chain run firewall,nat,snort -n 20000 --churn 2000 --check
dune exec bin/nfactor_cli.exe -- chain run snort,synguard,ips -n 20000 --shards 2 --check
dune exec bin/nfactor_cli.exe -- chain verify snort,firewall --invariant "never-reaches:ip_ttl<=0" --expect proven
dune exec bin/nfactor_cli.exe -- chain verify snort,firewall --invariant "never-reaches:dport=80" --expect violated
dune exec bench/main.exe -- --chain --smoke --json BENCH_chain.json
if grep -q '"chain_ok": false' BENCH_chain.json; then
  echo "chain dataplane gate failed (exactness, fusion, speedup, or invariants)" >&2
  exit 1
fi
rm -f BENCH_chain.json

# Static analyzer gates. Pre-minimization, the deliberately-redundant
# firewall must lint dirty (its dead audit branch is only visible to
# the bit-level implication lattice) and the minimizer must verify and
# shrink it; post-minimization, every corpus NF must lint clean (no
# errors or warnings) and the whole analysis section's gates —
# >= 20% reduction on the redundant NF, every rewrite Equiv-verified,
# compiled original-vs-minimized replays exact, no throughput
# regression — must hold at full budgets.
dune exec bin/nfactor_cli.exe -- lint firewall_redundant --expect dirty
dune exec bin/nfactor_cli.exe -- minimize firewall_redundant --check --json | grep -q '"verified": true'
for nf in $(dune exec bin/nfactor_cli.exe -- list | awk 'NR>1 {print $1}'); do
  dune exec bin/nfactor_cli.exe -- lint "$nf" --fix --expect clean > /dev/null
done
dune exec bench/main.exe -- --analysis --json BENCH_analysis.json
grep -q '"analysis_ok": true' BENCH_analysis.json
grep -q '"redundant_reduction_ok": true' BENCH_analysis.json
rm -f BENCH_analysis.json

# Worklist-explorer gates. With merging on, every NF the PR-9 forker
# explored must reproduce its recorded path census and solver-call
# count exactly and synthesize a byte-identical model; the exponential
# DPI member must collapse from >= 2^12 naive paths to at most 4x its
# branch count while staying differentially equal to the unmerged
# enumeration; and the merged exploration must not cost wall-clock
# against the naive one in the same process.
dune exec bench/main.exe -- --explore --json BENCH_explore.json
grep -q '"explore_ok": true' BENCH_explore.json
grep -q '"pr9_counters_reproduced": true' BENCH_explore.json
grep -q '"exponential_nf_ok": true' BENCH_explore.json
rm -f BENCH_explore.json
