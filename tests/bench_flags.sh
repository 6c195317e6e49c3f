#!/bin/sh
# Hostile-flag check of a bench binary: a malformed number and an
# unknown --name must each print the usage line to stderr and exit 2,
# never abort and never run with defaults. Invoked by ctest with the
# bench binary path as $1.
BENCH="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
status=0

expect_usage() {
  "$BENCH" "$@" > "$WORK/out" 2> "$WORK/err"
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "$BENCH $*: exit $code, want 2" >&2
    status=1
  fi
  if ! grep -q "^usage: " "$WORK/err"; then
    echo "$BENCH $*: no usage line on stderr" >&2
    status=1
  fi
}

# Small sizes keep a bench that ignores the bad flag quick. The bad flag
# comes last: a repeated flag keeps its last value.
expect_usage --trials 1 --bench-json - --peers abc
expect_usage --trials 1 --peers 20 --bench-json - --no-such-flag
exit $status
