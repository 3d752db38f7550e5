#!/usr/bin/env bash
# Offline CI gate for the heapdrag workspace.
#
# The workspace has no external crate dependencies, so everything below
# runs without registry or network access:
#
#   1. release build of the whole workspace
#   2. full test suite (unit + integration + testkit property tests),
#      including tests/experiments.rs, which checks every pinned table of
#      EXPERIMENTS.md against its renderer; `HEAPDRAG_BLESS=1 ./ci.sh`
#      rewrites those blocks (and the other goldens) instead of failing
#   3. clippy with warnings denied
#   4. rustfmt check of crates/vm (the first crate kept rustfmt-clean)
#   5. rustdoc with warnings denied (every public item stays documented)
#   6. a smoke run of the two-phase tool, sequential and sharded, checking
#      that the sharded report is byte-identical to the sequential one
#   7. a metrics smoke: both phases write --metrics-out snapshots and the
#      jq-free metrics_check example verifies they reconcile exactly
#   8. a cross-format smoke: the same workload profiled to a text and to a
#      binary (HDLOG v2) log must yield byte-identical reports, with the
#      read side autodetecting the format, at every shard count
#   9. a streaming smoke: a synthesized ~12 MB trace piped through stdin
#      (`analyze -`) must render byte-identical to the file-path report,
#      and the binary smoke log must autodetect through a pipe too
#  10. a salvage smoke: generated logs of both formats truncated at three
#      offsets must fail strict parsing with a stable E0xx code, succeed
#      under --salvage, and render footers byte-identical to the
#      committed golden (tests/golden/salvage_smoke.txt)
#  11. a serve smoke: three traces (mixed formats) spooled through the
#      multi-session service must produce a fleet report byte-identical
#      to `fleet-report` over the same logs submitted in a different
#      order, with the heapdrag_serve_* accounting reconciled in the
#      metrics snapshot
#  12. a differential smoke: one workload profiled under both interpreter
#      dispatch loops (--interpreter fast|reference) must write
#      byte-identical logs in both formats and byte-identical reports,
#      and the seeded random-program property suite must pass with a
#      pinned seed (so CI failures are replayable verbatim)
#  13. an optimize-fleet smoke: two workloads through the closed
#      profile -> rank -> rewrite -> verify -> re-profile loop; the text
#      scoreboard must match the committed golden byte for byte and stay
#      byte-identical when the pool size and shard count change
#  14. a live-mode smoke: `live` on the smoke program must emit
#      intermediate snapshots, report zero ring drops, match the
#      post-mortem `report` output byte-for-byte (final-report prefix),
#      be deterministic across two runs, and `profile --live-window
#      unbounded` must write a log byte-identical to the file-logging
#      profiler's
#  15. a retain smoke: `--retain-sample 0` must write a log byte-identical
#      to a plain profile; with sampling on, the log carries retain
#      lines, the report grows the retaining-paths section (pinned to
#      tests/golden/retain_smoke.txt), stays byte-identical across
#      shard counts and two runs, and optimize-fleet places at least
#      one path-anchored assign-null on the analyzer workload
#  16. a markdown link check: every relative link in
#      README/DESIGN/OPTIMIZER/EXPERIMENTS must point at a file that
#      exists — and every #anchor fragment at a real heading slug in
#      its target document — so doc cross-references can't rot
#  17. a benchmark input check: `perfbench/run.py --validate` runs both
#      ends of every benchmark input range, plain and profiled, so a VM
#      change that breaks a benchmark input fails here rather than in
#      the benchmark
#  18. a determinism witness: a 1-second `--trace 0` benchmark run of
#      each workload at a fixed seed (profile-churn 201, profile-retained
#      211, report-large 214) must fail no operation, and its witness
#      counters (steps, dispatch tallies, traced objects, deep GCs,
#      records, log bytes, retain samples) must equal the committed
#      tests/golden/bench_witness.json key for key; timings are not
#      checked. A change to counted work re-blesses the baseline with
#      `HEAPDRAG_BLESS=1 ./ci.sh` and commits the diff
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release --workspace

echo "== test =="
cargo test -q --workspace

echo "== clippy (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (crates/vm) =="
cargo fmt --check -p heapdrag-vm

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== smoke: two-phase tool =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin=target/release/heapdrag

"$bin" profile examples/dragged.hdj -o "$tmp/smoke.log"
"$bin" report "$tmp/smoke.log" --top 5 > "$tmp/report-seq.txt"
"$bin" report "$tmp/smoke.log" --top 5 --shards 4 --chunk-records 64 \
    --verbose-metrics \
    2> "$tmp/shard-metrics.txt" > "$tmp/report-par.txt"
diff -u "$tmp/report-seq.txt" "$tmp/report-par.txt"
grep -q '^\[parse\]' "$tmp/shard-metrics.txt"
grep -q '^\[analyze\]' "$tmp/shard-metrics.txt"
# Per-shard timings are opt-in: without --verbose-metrics stderr stays clean.
"$bin" report "$tmp/smoke.log" --top 5 --shards 4 --chunk-records 64 \
    2> "$tmp/quiet.txt" > /dev/null
if grep -q '^\[parse\]\|^\[analyze\]' "$tmp/quiet.txt"; then
    echo "shard timings printed without --verbose-metrics" >&2
    exit 1
fi
"$bin" inspect "$tmp/smoke.log" 1 --shards 2 > /dev/null

echo "== smoke: metrics reconciliation =="
"$bin" profile examples/dragged.hdj -o "$tmp/smoke.log" \
    --metrics-out "$tmp/online.json"
"$bin" report "$tmp/smoke.log" --shards 4 \
    --metrics-out "$tmp/offline.json" > /dev/null
"$bin" report "$tmp/smoke.log" \
    --metrics-out "$tmp/offline.prom" > /dev/null
grep -q '^# TYPE heapdrag_objects_created_total counter' "$tmp/offline.prom"
cargo run -q --release --example metrics_check -- \
    "$tmp/online.json" "$tmp/offline.json"

echo "== smoke: cross-format codec =="
"$bin" profile examples/dragged.hdj -o "$tmp/smoke-bin.log" --log-format binary
# The binary log carries the HDLOG v2 magic and beats the text encoding
# on size; the read side autodetects, so reports from either format must
# be byte-identical at every shard count.
head -c 8 "$tmp/smoke-bin.log" | od -An -tx1 | tr -d ' \n' | grep -q '^8948444c47320d0a$'
[ "$(wc -c < "$tmp/smoke-bin.log")" -lt "$(wc -c < "$tmp/smoke.log")" ]
"$bin" report "$tmp/smoke.log" --top 5 > "$tmp/report-text.txt"
"$bin" report "$tmp/smoke-bin.log" --top 5 > "$tmp/report-bin.txt"
diff -u "$tmp/report-text.txt" "$tmp/report-bin.txt"
"$bin" report "$tmp/smoke-bin.log" --top 5 --shards 4 --chunk-records 64 \
    > "$tmp/report-bin-par.txt"
diff -u "$tmp/report-text.txt" "$tmp/report-bin-par.txt"

echo "== smoke: streaming stdin =="
# Synthesize a large (~12 MB) text trace, stream it through stdin with
# `analyze -` (the streaming alias of `report`), and require output
# byte-identical to the file-path report of the same trace. The binary
# smoke log goes through stdin too: autodetection must work on a pipe.
awk 'BEGIN {
    print "heapdrag-log v1";
    for (c = 0; c < 8; c++) print "chain " c " Gen.site" c "@" c;
    for (i = 0; i < 200000; i++) {
        created = i * 13;
        printf "obj %d %d %d %d %d %d %d %d 0\n", i, i % 5, \
            8 + (i % 31) * 16, created, created + 400 + (i % 11) * 50, \
            created + 100, i % 8, i % 8;
        if (i % 512 == 0) printf "gc %d %d %d\n", created, i * 9 + 4096, i + 1;
    }
    print "end 999999999";
}' > "$tmp/big.log"
"$bin" report "$tmp/big.log" --top 5 --shards 4 --chunk-records 4096 \
    > "$tmp/big-file.txt"
"$bin" analyze - --top 5 --shards 4 --chunk-records 4096 \
    < "$tmp/big.log" > "$tmp/big-stdin.txt"
diff -u "$tmp/big-file.txt" "$tmp/big-stdin.txt"
"$bin" analyze - --top 5 < "$tmp/smoke-bin.log" > "$tmp/stdin-bin.txt"
diff -u "$tmp/report-bin.txt" "$tmp/stdin-bin.txt"

echo "== smoke: salvage ingestion =="
# Truncate the (deterministic) smoke logs — text and binary — at three
# byte offsets. Strict parsing must reject every prefix with a stable
# E0xx code; salvage must ingest it, and the summary footers must match
# the committed golden byte for byte.
: > "$tmp/salvage-footers.txt"
for log in smoke smoke-bin; do
    size=$(wc -c < "$tmp/$log.log")
    for pct in 40 60 85; do
        head -c $(( size * pct / 100 )) "$tmp/$log.log" > "$tmp/cut.log"
        if "$bin" report "$tmp/cut.log" --top 5 > /dev/null 2> "$tmp/strict-err.txt"; then
            echo "strict parsing accepted a truncated log ($log ${pct}%)" >&2
            exit 1
        fi
        grep -qE '\[E0[0-9]{2}\]' "$tmp/strict-err.txt" || {
            echo "strict failure lacks a stable error code ($log ${pct}%):" >&2
            cat "$tmp/strict-err.txt" >&2
            exit 1
        }
        echo "### $log truncated at ${pct}%" >> "$tmp/salvage-footers.txt"
        "$bin" report "$tmp/cut.log" --top 5 --salvage --shards 3 \
            | sed -n '/^--- salvage summary ---$/,$p' >> "$tmp/salvage-footers.txt"
    done
done
diff -u tests/golden/salvage_smoke.txt "$tmp/salvage-footers.txt"

echo "== smoke: multi-session serve =="
# Spool three traces of mixed formats through `serve`; the fleet report
# on stdout must be byte-identical to `fleet-report` handed the same
# logs in a different order (the fleet merge is arrival-order-invariant),
# and the serve accounting must reconcile in the metrics snapshot.
mkdir -p "$tmp/spool"
"$bin" profile examples/dragged.hdj -o "$tmp/spool/a.log"
"$bin" profile examples/dragged.hdj -o "$tmp/spool/b.log" --log-format binary
"$bin" profile examples/dragged.hdj -o "$tmp/spool/c.log" --interval-kb 50
"$bin" serve --spool "$tmp/spool" --pool 2 --drivers 2 --top 5 \
    --metrics-out "$tmp/serve.prom" \
    > "$tmp/fleet-spool.txt" 2> "$tmp/serve-sessions.txt"
[ "$(grep -c $'\tcompleted\t' "$tmp/serve-sessions.txt")" -eq 3 ]
"$bin" fleet-report "$tmp/spool/c.log" "$tmp/spool/a.log" "$tmp/spool/b.log" \
    --top 5 > "$tmp/fleet-direct.txt" 2> /dev/null
diff -u "$tmp/fleet-spool.txt" "$tmp/fleet-direct.txt"
grep -q '^=== fleet drag report: 3 sessions merged' "$tmp/fleet-spool.txt"
grep -q '^heapdrag_serve_sessions_completed_total 3$' "$tmp/serve.prom"
grep -q '^heapdrag_serve_active_sessions 0$' "$tmp/serve.prom"
grep -q '^heapdrag_serve_inflight_chunks 0$' "$tmp/serve.prom"

echo "== smoke: differential interpreters =="
# The fast pre-decoded interpreter is the default; the reference step()
# loop is the oracle. One workload, both interpreters, both log formats:
# the traces must be byte-identical, and so must the rendered reports.
for kind in fast reference; do
    "$bin" profile examples/dragged.hdj -o "$tmp/diff-$kind.log" \
        --interpreter "$kind"
    "$bin" profile examples/dragged.hdj -o "$tmp/diff-$kind-bin.log" \
        --interpreter "$kind" --log-format binary
    "$bin" report "$tmp/diff-$kind.log" --top 5 > "$tmp/diff-$kind-report.txt"
done
cmp "$tmp/diff-fast.log" "$tmp/diff-reference.log"
cmp "$tmp/diff-fast-bin.log" "$tmp/diff-reference-bin.log"
diff -u "$tmp/diff-fast-report.txt" "$tmp/diff-reference-report.txt"
# The property sweep over generated programs (megamorphic call sites,
# unwinds, finalizers), pinned to a fixed seed for reproducibility.
TESTKIT_SEED=3405691582 TESTKIT_CASES=64 \
    cargo test -q --release --test interp_differential \
    random_programs_are_interpreter_invariant

echo "== smoke: optimize-fleet =="
# Two workloads through the closed loop. The scoreboard is deterministic:
# golden-pinned, and byte-identical at any pool size / shard count. The
# JSON carries the outcome taxonomy; the metrics snapshot reconciles.
"$bin" optimize-fleet --workloads jess,juru --pool 2 --shards 3 \
    --json "$tmp/fleet-optimize.json" --metrics-out "$tmp/fleet-optimize.prom" \
    > "$tmp/fleet-optimize.txt" 2> /dev/null
diff -u tests/golden/optimize_fleet_smoke.txt "$tmp/fleet-optimize.txt"
"$bin" optimize-fleet --workloads jess,juru --pool 1 --shards 1 \
    > "$tmp/fleet-optimize-b.txt" 2> /dev/null
diff -u "$tmp/fleet-optimize.txt" "$tmp/fleet-optimize-b.txt"
grep -q '"outcomes": {"applied": ' "$tmp/fleet-optimize.json"
grep -q '^heapdrag_optimize_jobs_total 2$' "$tmp/fleet-optimize.prom"
grep -q '^heapdrag_optimize_attempts_total{outcome="rejected-by-verify"} 0$' \
    "$tmp/fleet-optimize.prom"

echo "== smoke: live mode =="
# The in-process live path must reproduce the post-mortem pipeline: the
# final report printed by `live` starts with the exact bytes `report`
# prints for a log of the same run (the coldness section follows), at
# least one intermediate snapshot appears, nothing is dropped, and two
# identical invocations produce identical output streams.
"$bin" report "$tmp/smoke.log" --top 5 > "$tmp/live-ref.txt"
"$bin" live examples/dragged.hdj --top 5 --every 2000 \
    --snapshot-out "$tmp/live-snaps.txt" \
    > "$tmp/live-final.txt" 2> "$tmp/live-summary.txt"
[ "$(grep -c '^=== live snapshot' "$tmp/live-snaps.txt")" -ge 1 ]
grep -q ', 0 dropped,' "$tmp/live-summary.txt"
grep -q '^--- coldness: per-site idle intervals' "$tmp/live-final.txt"
head -n "$(wc -l < "$tmp/live-ref.txt")" "$tmp/live-final.txt" \
    | diff -u "$tmp/live-ref.txt" -
"$bin" live examples/dragged.hdj --top 5 --every 2000 \
    --snapshot-out "$tmp/live-snaps-b.txt" \
    > "$tmp/live-final-b.txt" 2> /dev/null
diff -u "$tmp/live-snaps.txt" "$tmp/live-snaps-b.txt"
diff -u "$tmp/live-final.txt" "$tmp/live-final-b.txt"
# The profiling front end can also run through the live engine: with an
# unbounded window the emitted log is byte-identical to the default
# file-logging profiler's.
"$bin" profile examples/dragged.hdj -o "$tmp/live-window.log" \
    --live-window unbounded > /dev/null 2> /dev/null
cmp "$tmp/smoke.log" "$tmp/live-window.log"

echo "== smoke: retaining-path sampling =="
# Rate 0 is absence: the flag at 0 must write the very bytes a flagless
# profile writes, in both formats.
"$bin" profile examples/dragged.hdj -o "$tmp/retain-off.log" --retain-sample 0
cmp "$tmp/smoke.log" "$tmp/retain-off.log"
"$bin" profile examples/dragged.hdj -o "$tmp/retain-off.bin" \
    --retain-sample 0 --log-format binary
cmp "$tmp/smoke-bin.log" "$tmp/retain-off.bin"
# Sampling on: the log carries retain lines, and the report's new
# retaining-paths section matches the committed golden — byte-identical
# at every shard count, across both formats, and across two runs.
"$bin" profile examples/dragged.hdj -o "$tmp/retain.log" --retain-sample 0.5
[ "$(grep -c '^retain ' "$tmp/retain.log")" -ge 1 ]
"$bin" report "$tmp/retain.log" --top 5 > "$tmp/retain-report.txt"
diff -u tests/golden/retain_smoke.txt "$tmp/retain-report.txt"
for shards in 4 7; do
    "$bin" report "$tmp/retain.log" --top 5 --shards "$shards" \
        --chunk-records 64 > "$tmp/retain-report-s.txt"
    diff -u "$tmp/retain-report.txt" "$tmp/retain-report-s.txt"
done
"$bin" profile examples/dragged.hdj -o "$tmp/retain.bin" \
    --retain-sample 0.5 --log-format binary
"$bin" report "$tmp/retain.bin" --top 5 > "$tmp/retain-report-bin.txt"
diff -u "$tmp/retain-report.txt" "$tmp/retain-report-bin.txt"
"$bin" profile examples/dragged.hdj -o "$tmp/retain-b.log" --retain-sample 0.5
cmp "$tmp/retain.log" "$tmp/retain-b.log"
# The acceptance loop: on analyzer, the static-held sites no-op without
# sampling and are path-anchored with it, reported on the scoreboard
# and in the metrics snapshot.
"$bin" optimize-fleet --workloads analyzer --retain-sample 0.25 \
    --metrics-out "$tmp/retain-fleet.prom" > "$tmp/retain-fleet.txt" 2> /dev/null
grep -q '^path-anchored assign-null: [1-9]' "$tmp/retain-fleet.txt"
grep -Eq '^heapdrag_optimize_path_anchored_total [1-9]' "$tmp/retain-fleet.prom"

echo "== docs: markdown link check =="
# Every relative link target in the doc set must exist (http/mailto are
# skipped), and every #anchor fragment — in-page or cross-document —
# must name a real heading in its target, via GitHub's slug rules
# (lowercase, punctuation dropped, spaces to hyphens).
heading_slugs() {
    grep -E '^#{1,6} ' "$1" \
        | sed -E 's/^#+ +//' \
        | tr '[:upper:]' '[:lower:]' \
        | sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}
for doc in README.md DESIGN.md OPTIMIZER.md EXPERIMENTS.md; do
    [ -f "$doc" ] || { echo "missing doc: $doc" >&2; exit 1; }
    while IFS= read -r link; do
        case "$link" in
            http://*|https://*|mailto:*) continue ;;
        esac
        target="${link%%#*}"
        if [ -n "$target" ] && [ ! -e "$target" ]; then
            echo "$doc: broken link -> $target" >&2
            exit 1
        fi
        case "$link" in
            *'#'*)
                anchor="${link#*#}"
                anchor_doc="${target:-$doc}"
                case "$anchor_doc" in
                    *.md)
                        heading_slugs "$anchor_doc" | grep -qxF "$anchor" || {
                            echo "$doc: dead anchor -> $link" >&2
                            exit 1
                        } ;;
                esac ;;
        esac
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')
done

echo "== benchmark: input ranges =="
python3 perfbench/run.py --validate

echo "== benchmark: determinism witness =="
for spec in profile-churn:201 profile-retained:211 report-large:214; do
    python3 perfbench/run.py --workload "${spec%%:*}" --seed "${spec##*:}" \
        --seconds 1 --trace 0 --out "$tmp/witness-${spec%%:*}.jsonl" > /dev/null
done
python3 - tests/golden/bench_witness.json "$tmp" <<'PY'
import json, os, sys

golden_path, tmp = sys.argv[1], sys.argv[2]
golden = json.load(open(golden_path))
got, bad = {}, False
for workload, want in sorted(golden.items()):
    lines = open(os.path.join(tmp, f"witness-{workload}.jsonl")).read().splitlines()
    rec = json.loads(lines[-1])
    if rec["failed"] != 0:
        print(f"{workload}: {rec['failed']} of {rec['attempted']} operations failed")
        bad = True
    got[workload] = {"seed": want["seed"], "witness": rec["witness"]}
    have = rec["witness"]
    for key in sorted(set(want["witness"]) | set(have)):
        a, b = want["witness"].get(key), have.get(key)
        if a != b:
            print(f"{workload}: witness {key}: baseline {a}, this run {b}")
            bad = bad or os.environ.get("HEAPDRAG_BLESS") != "1"
if os.environ.get("HEAPDRAG_BLESS") == "1":
    with open(golden_path, "w") as f:
        json.dump(got, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"blessed {golden_path}")
sys.exit(1 if bad else 0)
PY

echo "== ok =="
