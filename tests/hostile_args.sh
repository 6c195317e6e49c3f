#!/bin/sh
# Hostile-argument check of lagover_inspect, lagover_cli and the example
# programs: a malformed or out-of-range number (a population or round
# count below 1 among them), an unknown name and an unknown --flag must
# each print a usage line to stderr and exit 2, never abort and never
# run. Invoked by ctest as:
# hostile_args.sh LAGOVER_INSPECT LAGOVER_CLI EXAMPLE...
INSPECT="$1"
CLI="$2"
shift 2
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

# Each lagover_cli subcommand takes exactly the flags its header lists;
# the flags are read before any input file is opened.
expect_usage "$CLI"
expect_usage "$CLI" frobnicate
expect_usage "$CLI" generate --no-such-flag
expect_usage "$CLI" generate --peers abc
expect_usage "$CLI" generate --peers 0
expect_usage "$CLI" generate --peers -5
expect_usage "$CLI" generate --kind zipf
expect_usage "$CLI" check --population "$DUMP" --seed 3
expect_usage "$CLI" construct --population "$DUMP" --max-rounds 5x
expect_usage "$CLI" construct --population "$DUMP" --max-rounds -3
expect_usage "$CLI" construct --population "$DUMP" --algorithm fastest
expect_usage "$CLI" construct --population "$DUMP" --oracle o9
expect_usage "$CLI" validate --snapshot "$DUMP" --duration 3
expect_usage "$CLI" disseminate --snapshot "$DUMP" --duration abc
expect_usage "$CLI" disseminate --snapshot "$DUMP" --duration -5
expect_usage "$CLI" disseminate --snapshot "$DUMP" --publish-period 0
expect_usage "$CLI" disseminate --snapshot "$DUMP" --no-such-flag

for example in "$@"; do
  expect_usage "$example" --seed abc
  expect_usage "$example" --no-such-flag
  case "$(basename "$example")" in
    quickstart|live_swarm|rss_aggregator)
      expect_usage "$example" --peers 0 ;;
    churn_resilience)
      expect_usage "$example" --peers 0
      expect_usage "$example" --rounds 0 ;;
    multipath_video)
      expect_usage "$example" --peers 0
      expect_usage "$example" --stripes 0 ;;
    adversarial_workload)
      expect_usage "$example" --k 0 ;;
  esac
done
exit $status
