# Sourced by CI steps that select tests by a name filter: `ran cargo test …`
# runs the command and additionally fails unless at least one test ran, so
# renaming a test cannot make its step pass vacuously.
ran() {
  local out
  out=$(mktemp)
  "$@" 2>&1 | tee "$out"
  test "${PIPESTATUS[0]}" -eq 0 || return 1
  grep -qE "test result: ok\. [1-9][0-9]* passed" "$out" || {
    echo "no test matched: $*" >&2
    return 1
  }
}
