#!/usr/bin/env bash
# Lists the libhdtn.a functions that no tool, example, bench (bench_micro
# excepted) or bench/e2e binary links, and fails when one of them is missing
# from tools/reachability_allowlist.txt.
#
#   tools/check_reachability.sh [BUILD_DIR]      (default: build-reach)
#
# Every binary is built with per-function sections, without the inliner's
# discretionary passes, and linked with --gc-sections, so a library function
# survives in a binary only when that binary calls it. The union of the
# binaries' text symbols is then diffed against libhdtn.a's global text
# symbols (`T`). What is left has no caller outside the unit tests and
# bench_micro.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$root/build-reach}")
allowlist="$root/tools/reachability_allowlist.txt"
flags="-ffunction-sections -fdata-sections -fno-inline-functions -fno-inline-small-functions"
configure=(-DCMAKE_BUILD_TYPE=Release "-DCMAKE_CXX_FLAGS=$flags"
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Every tool, example and bench target is named after its source file.
targets=()
for src in "$root"/tools/*.cpp "$root"/examples/*.cpp "$root"/bench/bench_*.cpp; do
  name=$(basename "$src" .cpp)
  [ "$name" = bench_micro ] || targets+=("$name")
done

# Build output goes to a log, shown only when a step fails.
mkdir -p "$out"
log="$out/build.log"
run() { "$@" >> "$log" 2>&1 || { cat "$log"; exit 1; }; }
: > "$log"
run cmake -S "$root" -B "$out/main" "${configure[@]}"
run cmake --build "$out/main" -j "$(nproc)" --target "${targets[@]}"
run cmake -S "$root/bench/e2e" -B "$out/e2e" "${configure[@]}"
run cmake --build "$out/e2e" -j "$(nproc)" --target hdtn_bench hdtn_sim

binaries=("$out/e2e/hdtn_bench" "$out/e2e/hdtn_sim")
for name in "${targets[@]}"; do
  bin=$(find "$out/main" -type f -name "$name" -perm -u+x | head -n 1)
  [ -n "$bin" ] || { echo "missing binary: $name" >&2; exit 1; }
  binaries+=("$bin")
done

# GCC's clones ("f [clone .constprop.0]") stand for the function they copy.
linked=$(mktemp)
defined=$(mktemp)
trap 'rm -f "$linked" "$defined"' EXIT
for bin in "${binaries[@]}"; do
  nm -C "$bin" | sed -n 's/^[0-9a-f]* [TtWw] //p'
done | sed 's/ \[clone [^]]*\]//g' | sort -u > "$linked"
nm -C --defined-only "$out/main/src/libhdtn.a" 2> /dev/null |
  sed -n 's/^[0-9a-f]* T //p' | sed 's/ \[clone [^]]*\]//g' |
  sort -u > "$defined"

unreached=$(comm -23 "$defined" "$linked")
allowed=$(sed -e 's/[[:space:]]*#.*$//' -e '/^$/d' "$allowlist" | sort -u)
missing=$(comm -23 <(printf '%s\n' "$unreached" | sed '/^$/d') \
                   <(printf '%s\n' "$allowed"))
stale=$(comm -13 <(printf '%s\n' "$unreached" | sed '/^$/d') \
                 <(printf '%s\n' "$allowed"))

count=$(printf '%s\n' "$unreached" | sed '/^$/d' | wc -l)
echo "$count libhdtn.a function(s) reached only from tests or bench_micro"
if [ -n "$stale" ]; then
  echo "allowlist entries that are now linked or gone (remove them):"
  printf '%s\n' "$stale" | sed 's/^/  /'
fi
if [ -n "$missing" ]; then
  echo "not in tools/reachability_allowlist.txt: give each a caller, delete it"
  echo "with the tests that only check it, or allowlist it with a reason:"
  printf '%s\n' "$missing" | sed 's/^/  /'
  exit 1
fi
echo "every unreached function is allowlisted"
