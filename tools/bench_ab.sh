#!/usr/bin/env bash
#
# Same-runner A/B gate for the fleet tick loop: builds bench/macro_fleet
# at the merge-base of <base-ref> and HEAD and at HEAD, runs the
# 10k-server cell alternately (base, head, base, head, ...) <reps> times
# each, and fails when the median ns_per_server_tick of HEAD exceeds the
# base's by more than <max-ratio>. Both builds run on the same machine
# within minutes of each other, so the ratio compares like with like.
#
# Usage:  tools/bench_ab.sh <base-ref> [reps=5] [max-ratio=1.25]
#
# Work files land in a temporary directory that is removed on exit.

set -euo pipefail

base_ref="${1:?usage: tools/bench_ab.sh <base-ref> [reps] [max-ratio]}"
reps="${2:-5}"
max_ratio="${3:-1.25}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

base="$(git -C "${repo_root}" merge-base "${base_ref}" HEAD)"
echo "=== A/B: base ${base} vs HEAD $(git -C "${repo_root}" rev-parse HEAD)"

mkdir -p "${work}/base-src"
git -C "${repo_root}" archive "${base}" | tar -x -C "${work}/base-src"
for side in base head; do
    src="${work}/base-src"
    [ "${side}" = head ] && src="${repo_root}"
    log="${work}/${side}-build.log"
    if ! { cmake -B "${work}/${side}-build" -S "${src}" \
               -DCMAKE_BUILD_TYPE=Release &&
           cmake --build "${work}/${side}-build" -j "$(nproc)" \
               --target macro_fleet; } >"${log}" 2>&1; then
        cat "${log}"
        echo "=== A/B: ${side} build failed" >&2
        exit 1
    fi
done

for i in $(seq 1 "${reps}"); do
    for side in base head; do
        "${work}/${side}-build/bench/macro_fleet" --sizes 10000 \
            --threads "$(nproc)" --json "${work}/${side}-${i}.json" \
            >/dev/null
    done
done

python3 - "${work}" "${reps}" "${max_ratio}" <<'PY'
import json, statistics, sys
work, reps, max_ratio = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
def cells(side):
    out = []
    for i in range(1, reps + 1):
        with open(f"{work}/{side}-{i}.json") as f:
            doc = json.load(f)
        out.append(doc["cells"][0]["ns_per_server_tick"])
    return out
base, head = cells("base"), cells("head")
mb, mh = statistics.median(base), statistics.median(head)
print("base ns/server-tick:", " ".join(f"{v:.1f}" for v in base))
print("head ns/server-tick:", " ".join(f"{v:.1f}" for v in head))
ratio = mh / mb
print(f"median head/base = {mh:.1f}/{mb:.1f} = {ratio:.3f}x "
      f"(gate {max_ratio}x)")
assert ratio <= max_ratio, (
    f"ns_per_server_tick regressed {ratio:.2f}x against the merge-base")
PY
