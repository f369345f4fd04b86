#!/bin/sh -e
# Tier-1 gate: build, full test suite, and a quick end-to-end benchmark run.
cd "$(dirname "$0")/.."
dune build

# Tier-1 suite, repeated: cross-domain races show up as intermittent
# failures on multi-core machines, so one green run proves little. Stop at
# the first red run and name it and its failing tests.
runs=5
runtest_log=$(mktemp /tmp/chimera-runtest-XXXXXX.log)
run=1
while [ "$run" -le "$runs" ]; do
  if ! dune runtest --force >"$runtest_log" 2>&1; then
    echo "ci: tier-1 run $run of $runs failed; failing tests:" >&2
    if grep -qF '[FAIL]' "$runtest_log"; then
      grep -F '[FAIL]' "$runtest_log" | sed 's/^[^[]*//; s/ *│ *$//' | sort -u >&2
    else
      tail -n 40 "$runtest_log" >&2
    fi
    rm -f "$runtest_log"
    exit 1
  fi
  run=$((run + 1))
done
rm -f "$runtest_log"
echo "ci: tier-1 suite passed $runs consecutive runs"

# Documentation build (odoc is optional in the minimal toolchain image).
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "ci: odoc not installed, skipping dune build @doc"
fi

# Engine correctness smoke: the tiered engine (the default: interpreted
# warm-up, block -> superblock -> IR promotion, profile-guided
# recompilation and jalr inline caches), the untiered engine (top tier on
# first touch) and the single-step reference must retire bit-identical
# instruction counts across every rewriting experiment (the
# fault-determinism contract, end to end). The ablation experiment's L1i
# model also runs both translating engines capped at IR-less superblocks.
# micro includes the branch-dense workload (interp-branchy), the worst case
# for side-exit dispatch, and the indirect-call workload that stresses the
# inline caches. Each line of engine_configs is one configuration: its
# name, then its flags.
enginedir=$(mktemp -d /tmp/chimera-engines-XXXXXX)
json_full=$(mktemp /tmp/chimera-full-XXXXXX.json)
trace=$(mktemp /tmp/chimera-trace-XXXXXX.jsonl)
profdir=$(mktemp -d /tmp/chimera-prof-XXXXXX)
trap 'rm -rf "$enginedir" "$json_full" "$trace" "$profdir"' EXIT
engine_exps="table1 fig13 table2 table3 ablation micro"
engine_configs="tiered
untiered --engine untiered
step --engine step"
reference=""
agree=1
report=""
while read -r name flags; do
  # $engine_exps and $flags are word lists: split them
  dune exec bench/main.exe -- $engine_exps -q $flags --json "$enginedir/$name.json" </dev/null
  retired=$(grep -o '"retired": [0-9]*' "$enginedir/$name.json")
  test -n "$retired"
  if [ -z "$reference" ]; then
    reference=$retired
  elif [ "$retired" != "$reference" ]; then
    agree=0
  fi
  report="$report  $name [$retired]
"
done <<CONFIGS
$engine_configs
CONFIGS
if [ "$agree" != 1 ]; then
  echo "ci: engine mismatch over [$engine_exps]:" >&2
  printf '%s' "$report" >&2
  exit 1
fi
echo "ci: tiered/untiered/step engines agree over [$engine_exps]"

# Tiering quality gates on the micro deterministic tail: with profile-guided
# recompilation and inline caches on, chained dispatch must dominate
# (chain_hit_rate >= 0.80 — the untiered engine sits near 0.43 on
# the branch-dense workload) and the inline caches must resolve nearly every
# indirect terminator (ic_hit_rate >= 0.90).
micro_line=$(grep '"name": "micro"' "$enginedir/tiered.json")
chain=$(echo "$micro_line" | grep -o '"chain_hit_rate": [0-9.]*' | grep -o '[0-9.]*$')
ichit=$(echo "$micro_line" | grep -o '"ic_hit_rate": [0-9.]*' | grep -o '[0-9.]*$')
test -n "$chain" && test -n "$ichit"
if ! awk "BEGIN { exit !($chain >= 0.80 && $ichit >= 0.90) }"; then
  echo "ci: tiering gates failed: chain_hit_rate=$chain (need >= 0.80)," >&2
  echo "    ic_hit_rate=$ichit (need >= 0.90)" >&2
  exit 1
fi
echo "ci: tiering gates passed (chain_hit_rate=$chain, ic_hit_rate=$ichit)"

# Observability smoke test: trace a quick table2 run and let the driver's
# validator cross-check the per-site counts against the event stream
# (non-zero exit on any mismatch; schema in OBSERVABILITY.md).
dune exec bench/main.exe -- table2 -q --trace "$trace"
test -s "$trace"
head -1 "$trace" | grep -q '"ev":"meta"'

# Profiler smoke: the guest profiler's retired total must equal the
# machine's own counter bit-for-bit, on all three engines. The driver
# already hard-checks this (non-zero exit on mismatch); re-assert it here
# from the JSON, and check the report + folded-stack outputs exist.
for eng in tiered untiered step; do
  dune exec bench/main.exe -- fig13 -q --engine "$eng" \
    --profile "$profdir" --json "$enginedir/prof.json"
  retired=$(grep -o '"retired": [0-9]*' "$enginedir/prof.json" | grep -o '[0-9]*')
  prof=$(grep -o '"prof_retired": [0-9]*' "$enginedir/prof.json" | grep -o '[0-9]*')
  test -n "$retired" && test -n "$prof"
  if [ "$retired" != "$prof" ]; then
    echo "ci: $eng engine: profiler retired $prof != machine retired $retired" >&2
    exit 1
  fi
  echo "ci: $eng engine profile exact ($prof retired)"
done
test -s "$profdir/fig13.txt"
test -s "$profdir/fig13.folded"

# Translation-cache smoke: two quick fig13 runs against one cache
# directory. Each invocation already runs cold-then-warm internally and
# hard-fails on any retired divergence between its passes; the second
# invocation additionally starts against a fully-populated directory, so
# its warm pass must hit nearly everything (>= 0.95) and its translate_s
# (translation the cache failed to serve) must sit under the cold pass's.
cachedir=$(mktemp -d /tmp/chimera-cache-XXXXXX)
json_cache=$(mktemp /tmp/chimera-cache-XXXXXX.json)
trap 'rm -rf "$enginedir" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache"' EXIT
# First invocation: genuinely cold then warm inside one process — the
# warm pass's translate_s must beat the cold pass's.
dune exec bench/main.exe -- fig13 -q --cache "$cachedir" --json "$json_cache"
retired1=$(grep -o '"retired": [0-9]*' "$json_cache")
warm_translate=$(grep -o '"translate_s": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
cold_translate=$(grep -o '"cold_translate_s": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
test -n "$warm_translate" && test -n "$cold_translate"
if ! awk "BEGIN { exit !($warm_translate < $cold_translate) }"; then
  echo "ci: cache gate failed: warm translate_s=$warm_translate" >&2
  echo "    (need < cold $cold_translate)" >&2
  exit 1
fi
# Second invocation: a fresh process against the populated directory — its
# warm pass must hit nearly everything, proving the entries persist and
# reload across process restarts; retired must match the first invocation.
dune exec bench/main.exe -- fig13 -q --cache "$cachedir" --json "$json_cache"
retired2=$(grep -o '"retired": [0-9]*' "$json_cache")
hit=$(grep -o '"cache_hit_rate": [0-9.]*' "$json_cache" | grep -o '[0-9.]*$')
test -n "$hit"
if [ "$retired1" != "$retired2" ]; then
  echo "ci: cache changed execution: [$retired1] != [$retired2]" >&2
  exit 1
fi
if ! awk "BEGIN { exit !($hit >= 0.95) }"; then
  echo "ci: cache gate failed: cache_hit_rate=$hit (need >= 0.95)" >&2
  exit 1
fi
echo "ci: cache gates passed (hit_rate=$hit, translate_s $cold_translate -> $warm_translate)"

# Metrics smoke: quick fig13 and fig14 with the metrics registry exporting
# at exit. Every --json row is a snapshot delta over its experiment and the
# exposition covers the whole run, so check from the artifacts that the
# exposition is well-formed Prometheus text, that its retired total equals
# the sum of the JSON rows' retired, and that the health watchdog found
# every rule healthy.
metrics_prom=$(mktemp /tmp/chimera-metrics-XXXXXX.prom)
json_metrics=$(mktemp /tmp/chimera-metrics-XXXXXX.json)
trap 'rm -rf "$enginedir" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache" "$metrics_prom" "$json_metrics"' EXIT
dune exec bench/main.exe -- fig13 fig14 -q --json "$json_metrics" --metrics "$metrics_prom"
grep -q '^# TYPE chimera_retired_total counter$' "$metrics_prom"
grep -q '^# TYPE chimera_translate_ns histogram$' "$metrics_prom"
grep -q 'le="+Inf"' "$metrics_prom"
retired_prom=$(grep '^chimera_retired_total ' "$metrics_prom" | grep -o '[0-9]*$')
retired_json=$(grep -o '"retired": [0-9]*' "$json_metrics" | awk '{ s += $2 } END { print s }')
test -n "$retired_prom" && test -n "$retired_json"
if [ "$retired_prom" != "$retired_json" ]; then
  echo "ci: metrics exposition disagrees with json: $retired_prom != sum of rows $retired_json" >&2
  exit 1
fi
if ! grep -q '^chimera_healthy 1$' "$metrics_prom"; then
  echo "ci: watchdog reported a degraded run:" >&2
  grep '^chimera_health' "$metrics_prom" >&2
  exit 1
fi
echo "ci: metrics smoke passed (retired=$retired_prom, watchdog healthy)"

# Serve smoke: one batch through the chimera CLI's multi-tenant server —
# two tenants (a Specgen guest and a generated fibonacci) submitted 32
# times each over 2 worker domains and the shared translation cache, 64
# requests in all, the queue_saturation rule's activity floor. Every
# request must be admitted and completed, the health watchdog must find
# every rule healthy with queue_saturation active, and each tenant's
# replicas must retire identically whatever their cache temperature.
serve_prom=$(mktemp /tmp/chimera-serve-XXXXXX.prom)
prewarm_dir=$(mktemp -d /tmp/chimera-prewarm-XXXXXX)
trap 'rm -rf "$enginedir" "$json_full" "$trace" "$profdir" "$cachedir" "$json_cache" "$metrics_prom" "$json_metrics" "$serve_prom" "$prewarm_dir"' EXIT
dune exec bin/chimera_cli.exe -- gen fibonacci "$prewarm_dir/fib.self" -n 2000 >/dev/null
serve_out=$(dune exec bin/chimera_cli.exe -- serve spec:omnetpp_r "$prewarm_dir/fib.self" \
  -j 2 --repeat 32 --cache "$cachedir" --metrics "$serve_prom")
admitted=$(grep '^chimera_serve_admitted_total ' "$serve_prom" | grep -o '[0-9]*$')
completed=$(grep '^chimera_serve_done_total ' "$serve_prom" | grep -o '[0-9]*$')
if [ "$admitted" != 64 ] || [ "$completed" != 64 ]; then
  echo "ci: serve admitted ${admitted:-?} and completed ${completed:-?} (want 64 each)" >&2
  exit 1
fi
if ! grep -q '^chimera_health{rule="queue_saturation"} 1$' "$serve_prom" \
  || ! grep -q '^chimera_healthy 1$' "$serve_prom"; then
  echo "ci: serve watchdog reported a degraded run:" >&2
  grep '^chimera_health' "$serve_prom" >&2
  exit 1
fi
for tenant in omnetpp_r fib; do
  lines=$(echo "$serve_out" | grep -c "^$tenant " || true)
  retired_set=$(echo "$serve_out" | grep "^$tenant " | grep -o 'retired=[0-9]*' | sort -u | wc -l)
  if [ "$lines" != 32 ] || [ "$retired_set" != 1 ]; then
    echo "ci: serve tenant $tenant: $lines outcomes, $retired_set distinct retired counts:" >&2
    echo "$serve_out" | grep "^$tenant " >&2
    exit 1
  fi
done
# cache prewarm stores under the keys the server reads, so the first
# serve of the same guest, ISA, mode and engine after it starts plan-warm.
dune exec bin/chimera_cli.exe -- cache prewarm "$prewarm_dir/cache" "$prewarm_dir/fib.self" --tiered
prewarm_out=$(dune exec bin/chimera_cli.exe -- serve "$prewarm_dir/fib.self" \
  --cache "$prewarm_dir/cache" --tiered)
if ! echo "$prewarm_out" | grep -q 'warm=true'; then
  echo "ci: first serve after cache prewarm started cold:" >&2
  echo "$prewarm_out" >&2
  exit 1
fi
echo "ci: serve smoke passed ($admitted requests, each tenant's replicas identical, prewarm serves warm, watchdog healthy)"

# Deploy smoke: one traced pass of the benchmark's deploy workload (a cold
# disassembly, CFG, liveness and CHBP rewrite, then a first run, for each
# of the 26 Specgen profiles). The seed fixes the work, so the counts are
# exact: a change to what the analysis discovers, what CHBP patches or
# what the guests retire moves them. The allocation is gated as well:
# analysis and the rewriter may each allocate at most 2% more minor words
# than the recorded 37.75 and 11.65 Mwords, plus 0.5 Mwords. The slack is
# two minor heaps: the benchmark reads minor words from Gc.quick_stat,
# which OCaml 5.1 advances only at minor collections, so a figure moves
# by about 0.25 Mwords whenever a collection lands on the other side of
# a span edge. Unrelated allocation elsewhere in the pass, or even the
# checkout's path, does that: one tree gave 37.06-37.28 and 11.99-12.48
# Mwords in different directories.
deploy_out=$(python3 perfbench/run.py --workload deploy --seed 1 --seconds 4 --trace 1 | tail -1)
python3 - "$deploy_out" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
metrics = result["metrics"]
want = {"analysis.insns": 891429, "rewriter.sites": 4211, "machine.retired": 4509070}
bad = [f"{k} = {metrics[k]['value']} (want {v})"
       for k, v in want.items() if metrics[k]["value"] != v]
budget = {"analysis.alloc_mwords": 37.75, "rewriter.alloc_mwords": 11.65}
bad += [f"{k} = {metrics[k]['value']:.2f} (want <= {v * 1.02 + 0.5:.2f})"
        for k, v in budget.items() if metrics[k]["value"] > v * 1.02 + 0.5]
if result["correct"] is not True or result["failed"] != 0:
    bad.append(f"correct = {result['correct']}, failed = {result['failed']}")
if bad:
    print("ci: deploy smoke failed: " + "; ".join(bad), file=sys.stderr)
    sys.exit(1)
print(f"ci: deploy smoke passed (analysis {metrics['analysis.busy_ms']['value']:.0f} ms, "
      f"load {metrics['load.busy_ms']['value']:.0f} ms, counts exact, "
      f"{metrics['analysis.alloc_mwords']['value']:.2f} + "
      f"{metrics['rewriter.alloc_mwords']['value']:.2f} Mwords)")
PY

# Steady smoke: one traced pass of the benchmark's steady workload (warm,
# cached, long-running guests on one domain). The seed fixes the work, so
# the retired and recovered-fault counts are exact, and so is the
# allocation per retired instruction: translated code and chained
# dispatch allocate nothing, and warm seeds clone in-process templates,
# so the words left are the cold omnetpp_r run's translation and lazy
# rewrite, template seeding, plan replay and fault recovery. The
# allocation bound sits 10% above the recorded 149.9 words/kinst; one
# tuple per dispatch in the dispatch loop alone puts it at 434.
steady_out=$(python3 perfbench/run.py --workload steady --seed 1 --seconds 4 --trace 1 | tail -1)
python3 - "$steady_out" <<'PY'
import json
import sys

result = json.loads(sys.argv[1])
metrics = result["metrics"]
want = {"machine.retired": 65659068, "runtime.faults_recovered": 640}
bad = [f"{k} = {metrics[k]['value']} (want {v})"
       for k, v in want.items() if metrics[k]["value"] != v]
alloc = metrics["machine.alloc_words_per_kinst"]["value"]
if alloc > 164.9:
    bad.append(f"machine.alloc_words_per_kinst = {alloc:.1f} (want <= 164.9)")
if result["correct"] is not True or result["failed"] != 0:
    bad.append(f"correct = {result['correct']}, failed = {result['failed']}")
if bad:
    print("ci: steady smoke failed: " + "; ".join(bad), file=sys.stderr)
    sys.exit(1)
print(f"ci: steady smoke passed (exec {metrics['exec.busy_ms']['value']:.0f} ms, "
      f"{alloc:.1f} words/kinst, counts exact)")
PY

# Perf-regression gate: diff a fresh full fig13 against the committed
# reference run — with metrics enabled, so the gate also proves the
# always-on registry costs no measurable wall time. retired must match
# exactly; wall time gets a generous tolerance (shared CI runners are
# noisy), hit rates -0.02 absolute, events_dropped at most baseline's.
dune exec bench/main.exe -- fig13 --json "$json_full" \
  --metrics "$metrics_prom" --compare BENCH_PR9.json --wall-tol 2.0
echo "ci: regression gate passed against BENCH_PR9.json (metrics on)"
