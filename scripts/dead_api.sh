#!/usr/bin/env bash
# Dead-API gate: every `pub fn` and `pub const` in the library crates must
# have a caller outside tests. Run from anywhere; exits 1 and lists the
# names that have none.
#
# The scan is textual. It takes each `pub fn`/`pub const` name declared in
# the non-test part of `crates/*/src`, counts its whole-word matches in the
# non-test parts of `crates/*/src`, `src`, `perfbench/src` and `examples`,
# and subtracts its own `pub` declarations. A file's non-test part is its
# lines before the first column-0 `#[cfg(test)]`. A name with no match left
# is dead: delete it, or move it under `#[cfg(test)]` when only its own
# crate's unit tests use it.
#
# Name collisions can hide a dead item (two types with a `fn len`), so the
# gate proves absence of callers only for names that are unique.
set -euo pipefail
cd "$(dirname "$0")/.."

# Names whose only callers are integration tests or another crate's unit
# tests, so `#[cfg(test)]` cannot hold them. One line each:
# `name  # the test that calls it`.
KEEP=$(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' <<'EOF'
random_circuit   # proptests: netlist/tests/verilog_props.rs, sat/tests/circuit_miters.rs, ril/tests/morph_props.rs, tests/properties.rs
sequential_lfsr  # tests/end_to_end.rs (scan-model attack on a sequential host)
root_consistent  # sat/tests/root_gc.rs (root trail sound after clause GC)
find_keys        # tests/properties.rs (banyan route/find round trip)
eval_pattern     # unit tests of ril (lut.rs, banyan.rs) and ril-attacks (miter.rs)
verify_formal    # ril/tests/morph_props.rs (every morph keeps the key correct, checked formally)
BASIC            # ril-sat and ril-attacks unit tests (tseitin.rs: simplify_is_exact_for_every_gate_kind; miter.rs: fold_is_exact_for_every_gate_kind)
EOF
)

non_test() {
  awk 'FNR == 1 { live = 1 } /^#\[cfg\(test\)\]/ { live = 0 } live' "$@"
}

mapfile -t decl_files < <(find crates/*/src -name '*.rs' | sort)
mapfile -t use_files < <(find crates/*/src src perfbench/src examples -name '*.rs' | sort)

decls=$(non_test "${decl_files[@]}" \
  | grep -oE '^[[:space:]]*pub (const )?(fn|const) [A-Za-z_][A-Za-z0-9_]*' \
  | awk '{ print $NF }' | sort)
words=$(non_test "${use_files[@]}" | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)

dead=$(join -1 2 -2 2 -o '0,1.1,2.1' \
  <(uniq -c <<<"$decls" | sort -k2,2) <(sort -k2,2 <<<"$words") \
  | awk '$3 - $2 <= 0 { print $1 }' | sort)

unkept=$(comm -23 <(printf '%s\n' "$dead") <(awk '{ print $1 }' <<<"$KEEP" | sort) \
  | sed '/^$/d')
stale=$(comm -13 <(printf '%s\n' "$dead") <(awk '{ print $1 }' <<<"$KEEP" | sort) \
  | sed '/^$/d')

status=0
if [ -n "$unkept" ]; then
  echo "dead_api: pub items with no non-test caller (delete, move under #[cfg(test)], or keep-list with the test that needs it):"
  sed 's/^/  /' <<<"$unkept"
  status=1
fi
if [ -n "$stale" ]; then
  echo "dead_api: keep-list entries that now have a non-test caller (drop them from the list):"
  sed 's/^/  /' <<<"$stale"
  status=1
fi
# The size of the program: non-test, non-blank Rust lines in the files
# the scan reads for callers.
lines=$(non_test "${use_files[@]}" | grep -cv '^[[:space:]]*$')
[ "$status" -eq 0 ] && echo "dead_api: every pub fn/const has a non-test caller ($(wc -l <<<"$KEEP") kept for tests; $lines non-test lines)"
exit "$status"
