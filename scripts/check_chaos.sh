#!/usr/bin/env sh
# Chaos gate: run the seeded fault-storm + overload-burst campaigns
# (repro chaos) over the figS serving topology, with the invariant
# checkers online and SLO floors enforced.  The set includes the
# m3v-migration-storm campaign (packed skewed layout, EDF mux,
# controller rebalancer), whose phases additionally require live
# activity migrations — including evacuating quarantined tiles
# mid-fault-storm — so the migration path is exercised under chaos,
# not just in unit tests.  The campaign set runs twice — once as
# invoked and once under PYTHONHASHSEED=31337 — and the verdict output
# must be byte-identical: the chaos schedule, like everything else, may
# not depend on the interpreter's hash randomization.
#
# Usage: scripts/check_chaos.sh [requests-per-gateway-per-phase]
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH=src
requests="${1:-10}"

status=0

if python -m repro chaos --requests "$requests" \
        > /tmp/chaos_first.txt 2>&1; then
    echo "ok   chaos campaigns (first run)"
else
    status=1
    echo "FAIL chaos campaigns (first run):" >&2
    cat /tmp/chaos_first.txt >&2
fi

if PYTHONHASHSEED=31337 \
        python -m repro chaos --requests "$requests" \
        > /tmp/chaos_hashseed.txt 2>&1; then
    echo "ok   chaos campaigns (PYTHONHASHSEED=31337)"
else
    status=1
    echo "FAIL chaos campaigns (PYTHONHASHSEED=31337):" >&2
    cat /tmp/chaos_hashseed.txt >&2
fi

if [ "$status" -eq 0 ]; then
    if cmp -s /tmp/chaos_first.txt /tmp/chaos_hashseed.txt; then
        echo "ok   campaign verdicts identical across hash seeds"
    else
        status=1
        echo "FAIL campaign verdicts diverge across hash seeds:" >&2
        diff /tmp/chaos_first.txt /tmp/chaos_hashseed.txt >&2 || true
    fi
fi

exit $status
