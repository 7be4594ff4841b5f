#!/usr/bin/env bash
# Self-test of the benchmark, run from the repository root:
#
#   bash perfbench/selftest.sh
#
# 1. Planted defects must make the benchmark fail (exit 1, "correct": false,
#    "failed" > 0): drop-tuple on catalog-union, true-translator on
#    translate-fresh.
# 2. One seed must give the same request stream and the same single-client
#    count metrics in two traced runs.
# 3. Every run above must print exactly the metrics BENCHMARK.json declares:
#    its end_to_end list with --trace 0, its per_layer list with --trace 1.
#
# Prints one line per check and exits 1 if any check fails.
set -uo pipefail
rates=(--rate catalog-union=20 --rate translate-fresh=2500)
out=.bench_build/selftest
mkdir -p "$out"
status=0

# declared LOG LIST: the last line of LOG must carry exactly the metrics of
# BENCHMARK.json's LIST (end_to_end or per_layer).
declared() {
	local log=$1 list=$2
	if python3 - "$log" "$list" <<'PY'; then
import json, sys
log, key = sys.argv[1:3]
want = {m["name"] for m in json.load(open("BENCHMARK.json"))[key]}
got = set(json.loads(open(log).read().splitlines()[-1])["metrics"])
for m in sorted(want - got):
    print("      missing:", m)
for m in sorted(got - want):
    print("      not declared:", m)
sys.exit(0 if want == got else 1)
PY
		echo "ok    $log prints every $list metric of BENCHMARK.json"
	else
		echo "FAIL  $log does not print the $list metrics of BENCHMARK.json"
		status=1
	fi
}

expect_caught() {
	local workload=$1 plant=$2 log="$out/$1-$2.log"
	bash perfbench/run.sh "${rates[@]}" --workload "$workload" --seed 7 --seconds 2 --trace 0 --plant "$plant" >"$log" 2>&1
	local code=$?
	if [[ $code -eq 1 ]] && tail -n 1 "$log" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if not r["correct"] and r["failed"] > 0 else 1)'; then
		echo "ok    $plant on $workload is reported: $(grep -m1 error_pct "$log" | tr -s ' ')"
	else
		echo "FAIL  $plant on $workload was not reported (exit $code, see $log)"
		status=1
	fi
	declared "$log" end_to_end
}

expect_caught catalog-union drop-tuple
expect_caught translate-fresh true-translator

# Counts that a single client must reproduce exactly for a seed. On
# translate-fresh the plan and the match cache evict, and which entry they
# evict depends on a shard chosen by a maphash seed that core draws at
# random per process (core.NewPlan, core.NewMatchCacheAdmission). Their hit
# and eviction counts there can differ by a few lookups between two
# processes; the check prints them but does not fail on them.
counts='serve.cache_hit_pct serve.cache_evictions_per_kop core.plan_hit_pct core.plan_evictions_per_kop
core.matchcache_hit_pct core.product_terms_per_miss core.scm_calls_per_miss core.rule_fires_per_miss
engine.selected_tuples_per_op serve.result_tuples_per_op'
sharded='core.plan_hit_pct core.plan_evictions_per_kop core.matchcache_hit_pct'
for workload in catalog-union translate-fresh; do
	exempt=
	[[ $workload == translate-fresh ]] && exempt=$sharded
	for run in 1 2; do
		bash perfbench/run.sh "${rates[@]}" --workload "$workload" --seed 7 --seconds 2 --trace 1 >"$out/$workload-det$run.log" 2>&1
	done
	if EXEMPT=$exempt python3 - "$out/$workload-det1.log" "$out/$workload-det2.log" $counts <<'EOF'; then
import json, os, sys
exempt = os.environ["EXEMPT"].split()
a, b = (open(p).read().splitlines() for p in sys.argv[1:3])
stream = lambda lines: next(l for l in lines if l.startswith("request stream"))
ra, rb = json.loads(a[-1]), json.loads(b[-1])
diff = [m for m in sys.argv[3:] if ra["metrics"][m]["value"] != rb["metrics"][m]["value"]]
for m in [m for m in diff if m in exempt]:
    print("      varies (random shard seed):", m, ra["metrics"][m]["value"], rb["metrics"][m]["value"])
diff = [m for m in diff if m not in exempt]
if stream(a) != stream(b):
    diff.append("request stream")
for m in diff:
    print("      differs:", m, ra["metrics"].get(m, {}).get("value"), rb["metrics"].get(m, {}).get("value"))
sys.exit(1 if diff or not (ra["correct"] and rb["correct"]) else 0)
EOF
		echo "ok    $workload: same request stream and counts for one seed"
	else
		echo "FAIL  $workload: runs with one seed differ (see $out/$workload-det*.log)"
		status=1
	fi
	declared "$out/$workload-det1.log" per_layer
done
exit $status
