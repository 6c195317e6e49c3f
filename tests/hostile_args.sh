#!/bin/sh
# Hostile-argument check of lagover_inspect and the example programs: a
# malformed or out-of-range number and an unknown --name must each print
# a usage line to stderr and exit 2, never abort and never run. Invoked
# by ctest as: hostile_args.sh LAGOVER_INSPECT EXAMPLE...
INSPECT="$1"
shift
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
status=0

expect_usage() {
  "$@" > "$WORK/out" 2> "$WORK/err"
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "$*: exit $code, want 2" >&2
    status=1
  fi
  if ! grep -q "^usage: " "$WORK/err"; then
    echo "$*: no usage line on stderr" >&2
    status=1
  fi
}

# A one-line stream is a dump that loads, so each query gets as far as
# its arguments.
DUMP="$WORK/dump.jsonl"
echo '{}' > "$DUMP"
expect_usage "$INSPECT" "$DUMP" path abc 3
expect_usage "$INSPECT" "$DUMP" path 1 3x
expect_usage "$INSPECT" "$DUMP" timeline xyz
expect_usage "$INSPECT" "$DUMP" timeline 99999999999999999999
expect_usage "$INSPECT" "$DUMP" timeline 4294967296
expect_usage "$INSPECT" "$DUMP" ancestry 3 --at abc
expect_usage "$INSPECT" "$DUMP" laggards -5x
expect_usage "$INSPECT" "$DUMP" summary --no-such-flag

for example in "$@"; do
  expect_usage "$example" --seed abc
  expect_usage "$example" --no-such-flag
done
exit $status
