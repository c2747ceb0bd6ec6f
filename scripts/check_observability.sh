#!/usr/bin/env sh
# Observability sanity check: the metrics/spans/facade suites must pass,
# and `repro stats` must print identical aggregate counters in two fresh
# interpreters with different hash seeds — metering must be exactly as
# deterministic as the simulation it observes.
#
# Usage: scripts/check_observability.sh
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src

status=0

echo "== observability test suites"
if ! python -m pytest -q -p no:warnings \
        tests/test_obs_metrics.py tests/test_obs_spans.py \
        tests/test_obs_zero_cost.py tests/test_api_facade.py \
        tests/test_cli_obs.py; then
    echo "FAIL observability suites" >&2
    status=1
fi

stats_of() {
    # aggregate counters only: everything after the marker line, which is
    # the deterministic slice (wall-clock noise lives above it)
    PYTHONHASHSEED="$2" python -m repro stats "$1" --quick --no-cache \
        | sed -n '/aggregate counters/,$p'
}

echo "== repro stats determinism across hash seeds"
# figR adds the M3x slow-path, forwarding and recovery metrics fig6 lacks
for sweep in fig6 figR; do
    a="$(stats_of "$sweep" 1)"
    b="$(stats_of "$sweep" 2)"
    if [ -z "$a" ] || [ "$a" != "$b" ]; then
        echo "FAIL: $sweep aggregate counters differ across interpreters" >&2
        status=1
    else
        echo "ok   stats $sweep --quick: identical under PYTHONHASHSEED=1 and 2"
    fi
done

echo "== repro profile smoke"
profile="$(python -m repro profile fig6 --quick)"
if ! printf '%s\n' "$profile" | grep -q "events/s" \
        || ! printf '%s\n' "$profile" | grep -q "sim/evq_depth"; then
    echo "FAIL: repro profile fig6 --quick printed no self-profile" >&2
    status=1
else
    echo "ok   profile fig6 --quick emits the subsystem table and queue depth"
fi

exit $status
