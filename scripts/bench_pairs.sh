#!/usr/bin/env bash
# Runs alternating parent/change pairs of one perfbench workload and says
# whether the change beats the parent by more than the parent's noise.
#
#   scripts/bench_pairs.sh <parent-rev> <workload> [pairs] [seed]
#
# <workload> must be one of the workloads BENCHMARK.json names.
#
# Builds perfbench twice: from <parent-rev>, exported with `git archive`
# into .bench_build/parent-<sha>/, and from the working tree. Then it runs
# `pairs` (default 10, at least 2) untraced pairs at BENCHMARK.json's
# run_seconds, alternating which side goes first, and one traced pair for
# the per-layer metrics. `seed` (default 1000, perfbench's default) is
# passed as --seed. Every run overwrites perfbench/out/, so each record is copied
# to .bench_build/pairs/<workload>-seed<seed>/{base,change}/. Guest steal,
# the 8th field of /proc/stat's cpu line, is logged per run to steal.tsv
# there.
#
# Prints `perfbench steady` for each side and `perfbench compare`, then,
# for each end-to-end metric, the pairs the change won, whether the gap
# between the medians exceeds the parent's interquartile range (IQR),
# each side's IQR as a fraction of its own median, and whether the gap
# exceeds the larger of the two IQRs. The last is the fair spread check:
# a k-fold gain is not asked to be k times steadier than the parent.
# After the traced per-layer table it prints the traced pair's
# deterministic search counts side by side and `search identical: yes|no`.
# At seed 1000 it also writes the change side's ledger to
# BENCH_<workload>.json at the repo root: the median and quartiles of
# every end-to-end metric, the traced per-layer medians, the commit, the
# seed and the steal per run. `commit` is HEAD at run time; `dirty` says
# the working tree had uncommitted changes, so the numbers describe the
# commit that adds the ledger. Nothing under perfbench/ is changed.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT=$(pwd)

usage() { sed -n '2,32p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }
[ $# -ge 2 ] || usage
PAIRS=${3:-10}
SEED=${4:-1000}
# The summary takes quartiles over the pairs, which needs at least two.
[[ $PAIRS =~ ^[0-9]+$ && $SEED =~ ^[0-9]+$ ]] || usage
[ "$PAIRS" -ge 2 ] || usage
WORKLOAD=$2
python3 -c 'import json,sys; sys.exit(sys.argv[2] not in [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' \
  BENCHMARK.json "$WORKLOAD" || usage
PARENT=$(git rev-parse --verify "$1^{commit}")
SECONDS_PER_RUN=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)
TICKS=$(getconf CLK_TCK)

BUILD="$ROOT/.bench_build"
BASE_DIR="$BUILD/parent-$PARENT"
OUT="$BUILD/pairs/$WORKLOAD-seed$SEED"
rm -rf "$OUT"
mkdir -p "$OUT/base" "$OUT/change"

if [ ! -d "$BASE_DIR" ]; then
  mkdir -p "$BASE_DIR.tmp"
  git archive "$PARENT" | tar -x -C "$BASE_DIR.tmp"
  mv "$BASE_DIR.tmp" "$BASE_DIR"
fi
echo "== building perfbench: parent ${PARENT:0:12} and the working tree" >&2
for tree in "$BASE_DIR" "$ROOT"; do
  cargo build --release --offline --quiet --manifest-path "$tree/perfbench/Cargo.toml" --bin perfbench
done

steal_ticks() { awk '/^cpu /{print $9}' /proc/stat; }

# run <side> <name> <trace>: one perfbench run, its record copied out.
run() {
  local side=$1 name=$2 trace=$3 tree bin before after t0 t1
  if [ "$side" = base ]; then tree=$BASE_DIR; else tree=$ROOT; fi
  bin="$tree/perfbench/target/release/perfbench"
  before=$(steal_ticks)
  t0=$(date +%s.%N)
  # The ceiling keeps the exported parent tree from reporting the
  # enclosing checkout's commit as its own.
  (cd "$tree" && GIT_CEILING_DIRECTORIES="$BUILD" "$bin" --workload "$WORKLOAD" \
    --seed "$SEED" --seconds "$SECONDS_PER_RUN" --trace "$trace" \
    >"$OUT/$side/$name.stdout" 2>"$OUT/$side/$name.stderr")
  t1=$(date +%s.%N)
  after=$(steal_ticks)
  cp "$tree/perfbench/out/$WORKLOAD-seed$SEED-trace$trace.json" "$OUT/$side/$name.json"
  awk -v s="$side" -v n="$name" -v d="$((after - before))" -v hz="$TICKS" -v t0="$t0" -v t1="$t1" \
    'BEGIN { printf "%s\t%s\t%.3f\t%.3f\n", s, n, d / hz, t1 - t0 }' >>"$OUT/steal.tsv"
  echo "  $side $name done" >&2
}

printf 'side\trun\tsteal_s\twall_s\n' >"$OUT/steal.tsv"
for i in $(seq 1 "$PAIRS"); do
  echo "== pair $i/$PAIRS" >&2
  if [ $((i % 2)) -eq 1 ]; then
    run base "run$i" 0
    run change "run$i" 0
  else
    run change "run$i" 0
    run base "run$i" 0
  fi
done
echo "== traced pair" >&2
run base traced 1
run change traced 1

PB="$ROOT/perfbench/target/release/perfbench"
for side in base change; do
  echo "== perfbench steady ($side)"
  "$PB" steady "$OUT/$side"/run*.json || true
done
echo "== perfbench compare (base -- change)"
"$PB" compare "$OUT/base"/run*.json -- "$OUT/change"/run*.json || true

LEDGER=""
[ "$SEED" = 1000 ] && LEDGER="$ROOT/BENCH_$WORKLOAD.json"
COMMIT=$(git rev-parse HEAD)
DIRTY=$(if [ -z "$(git status --porcelain -- . ':!BENCH_*.json')" ]; then echo false; else echo true; fi)
python3 - "$OUT" "$PAIRS" "$WORKLOAD" "$SEED" "$COMMIT" "$DIRTY" "$PARENT" "$LEDGER" <<'EOF'
import json, statistics, sys

out, pairs, workload, seed, commit, dirty, parent, ledger = sys.argv[1:]
pairs = int(pairs)
bench = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["unit"], m["better"] == "lower") for m in bench["end_to_end"]]
load = lambda side, name: json.load(open(f"{out}/{side}/{name}.json"))
runs = {s: [load(s, f"run{i}") for i in range(1, pairs + 1)] for s in ("base", "change")}

def quartiles(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3

def spread(iqr, median):
    return f"{iqr / median:.1%}" if median else "-"

print(f"== pair wins and median gap vs IQR ({pairs} pairs)")
print(f"  {'metric':<16} {'parent':>12} {'change':>12} {'wins':>6} {'|gap|>IQR':>10}"
      f" {'IQR/med p':>10} {'IQR/med c':>10} {'|gap|>max IQR':>14}")
summary = {}
for name, unit, lower in metrics:
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
    bq1, bmed, bq3 = quartiles(b)
    q1, med, q3 = quartiles(c)
    gap = abs(med - bmed)
    beyond = gap > bq3 - bq1
    fair = gap > max(bq3 - bq1, q3 - q1)
    print(f"  {name:<16} {bmed:>12.6g} {med:>12.6g} {wins:>3}/{pairs:<2} {str(beyond):>10}"
          f" {spread(bq3 - bq1, bmed):>10} {spread(q3 - q1, med):>10} {str(fair):>14}")
    summary[name] = {"unit": unit, "q1": q1, "median": med, "q3": q3}

traced = {s: load(s, "traced")["metrics"] for s in ("base", "change")}
print("== traced per-layer medians (one run each)")
for name, v in traced["base"].items():
    print(f"  {name:<28} {v['value']:>14.6g} {traced['change'][name]['value']:>14.6g}")

# The search is deterministic, so equal counts on both sides mean the
# change kept the parent's search.
print("== search counts (traced pair)")
same = True
for name in ("sat.conflicts", "sat.propagations", "sat.decisions", "sat.learned",
             "attack.dips", "attack.solves"):
    b, c = (traced[s].get(name, {}).get("value") for s in ("base", "change"))
    same = same and b is not None and b == c
    print(f"  {name:<28} {b!s:>14} {c!s:>14}")
print(f"search identical: {'yes' if same else 'no'}")

steal = {}
with open(f"{out}/steal.tsv") as f:
    next(f)
    for line in f:
        side, name, s, _ = line.split("\t")
        steal.setdefault(side, []).append({"run": name, "steal_s": round(float(s), 3)})
print("== guest steal per run (s):", {s: [r["steal_s"] for r in v] for s, v in steal.items()})

if ledger:
    first = runs["change"][0]
    record = {
        "workload": workload,
        "commit": commit,
        "dirty": dirty == "true",
        "parent": parent,
        "seed": int(seed),
        "lock_seed": first["lock_seed"],
        "seconds": first["seconds"],
        "nproc": first["nproc"],
        "runs": pairs,
        "end_to_end": summary,
        "per_layer": {k: v["value"] for k, v in traced["change"].items()},
        "steal_s": steal["change"],
    }
    with open(ledger, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"== ledger written: {ledger}")
EOF
