#!/bin/sh
# The CI job (.github/workflows/ci.yml runs exactly this script): tier-1
# tests, CLI gates, and the bench gates. Every bench invocation prints
# one `gate <section>.<name>: ok|FAIL` line per acceptance gate of the
# sections it ran and exits 1 if any failed, so `set -e` stops there.
set -eux

dune build
dune runtest

# The benchmark's reference checks: every operation of every workload
# must reproduce its reference result (synthesized models, engine
# outputs and state, chain outputs, verifier verdicts), so a cache key
# that hands back a stale plan fails here.
for w in synth serve chain verify; do
  sh perfbench/run.sh --workload "$w" --seed 2 --seconds 1 --trace 0 | tail -1 | grep -q '"failed": 0'
done

# Bench smoke: pipeline warm-cache speedup, runtime engine (>= 5x the
# interpreter, outputs and state equal, no ordered-scan fallback) and
# shard scaling (2-shard exactness; speedup points only where the host
# has the cores) at reduced budgets.
dune exec bench/main.exe -- --smoke
dune exec bin/nfactor_cli.exe -- run -n 5000 --check snort
dune exec bin/nfactor_cli.exe -- run -n 5000 --json snort | grep -q '"index_hits"'
dune exec bin/nfactor_cli.exe -- run -n 5000 --json portknock | grep -q '"fsm_hits"'

# Sharded dataplane: a 2-domain run must reproduce the single engine
# exactly (outputs, merged store, merged counters) on both random and
# churn traffic, and must stay fully dispatched (scan_hits 0 on
# classified NFs).
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --check nat
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --churn 500 --check portknock
dune exec bin/nfactor_cli.exe -- run -n 5000 --shards 2 --json nat | grep -q '"scan_hits": 0'

# Runtime gates at full packet budgets, including the dispatch gate
# (speedups are budget-dependent, so the smoke run cannot judge them):
# every stateful NF's engine-vs-interpreter speedup, relative to the
# recorded dispatch baseline, must clear the per-NF floor and the
# geomean threshold (see bench/main.ml for the thresholds and their
# noise rationale).
dune exec bench/main.exe -- --rt

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

# Model interchange gates: the current format exports and re-imports
# (dpi's merged model included), a file written by the previous format
# version (version 2) still imports, and a malformed string escape is a
# located error (exit 1), not an uncaught exception (exit 125).
dune exec bin/nfactor_cli.exe -- export dpi -o "$CACHE_DIR/dpi.model"
dune exec bin/nfactor_cli.exe -- import "$CACHE_DIR/dpi.model" > /dev/null
dune exec bin/nfactor_cli.exe -- import test/data/lb_v2.model > /dev/null
status=0
dune exec bin/nfactor_cli.exe -- import test/data/bad_escape.model 2> /dev/null || status=$?
test "$status" -eq 1

# Compiled service-chain gates: the linked 3-NF chain must reproduce
# the interpreter chain exactly (outputs, per-hop final stores) on
# random and churn traffic, a sharded chain must reproduce the single
# linked engine, and the invariant verifier must prove a true
# invariant and refute a false one with a counterexample that replays
# through the compiled chain. The bench adds fusion and the >= 5x
# speedup over the interpreter chain.
dune exec bin/nfactor_cli.exe -- chain run firewall,nat,snort -n 20000 --check
dune exec bin/nfactor_cli.exe -- chain run firewall,nat,snort -n 20000 --churn 2000 --check
dune exec bin/nfactor_cli.exe -- chain run snort,synguard,ips -n 20000 --shards 2 --check
dune exec bin/nfactor_cli.exe -- chain verify snort,firewall --invariant "never-reaches:ip_ttl<=0" --expect proven
dune exec bin/nfactor_cli.exe -- chain verify snort,firewall --invariant "never-reaches:dport=80" --expect violated
dune exec bench/main.exe -- --chain --smoke

# Static analyzer gates. Pre-minimization, the deliberately-redundant
# firewall must lint dirty (its dead audit branch is only visible to
# the bit-level implication lattice) and the minimizer must verify and
# shrink it; post-minimization, every corpus NF must lint clean (no
# errors or warnings) and the analysis section's gates — >= 20%
# reduction on the redundant NF, every rewrite Equiv-verified, compiled
# original-vs-minimized replays exact, no throughput regression — must
# hold at full budgets.
dune exec bin/nfactor_cli.exe -- lint firewall_redundant --expect dirty
dune exec bin/nfactor_cli.exe -- minimize firewall_redundant --check --json | grep -q '"verified": true'
for nf in $(dune exec bin/nfactor_cli.exe -- list | awk 'NR>1 {print $1}'); do
  dune exec bin/nfactor_cli.exe -- lint "$nf" --fix --expect clean > /dev/null
done
dune exec bench/main.exe -- --analysis

# Worklist-explorer gates: merged and unmerged models agree corpus-wide;
# the exponential DPI member collapses from >= 2^12 naive paths to at
# most 4x its branch count; and the merged exploration does not cost
# wall-clock against the naive one in the same process. (The legacy
# NFs' path and solver-call census is pinned by `dune runtest`.)
dune exec bench/main.exe -- --explore
