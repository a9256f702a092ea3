#!/bin/sh
# resilience_smoke.sh — end-to-end crash-safety check for the sweep
# checkpoint journal: run a golden (uninterrupted) cachesweep, then run
# the same sweep with a checkpoint and SIGKILL it mid-flight a few
# times, resume to completion, and require the resumed CSV to be
# byte-identical to the golden one. `make resilience-smoke` runs this;
# it is part of `make check`.
#
# Child exit codes are classified strictly (see smoke_lib.sh): 0 is
# success, 3 (resilience.ExitInterrupted) is a resumable graceful
# stop, 137 is acceptable only for a SIGKILL this script itself sent.
# Anything else — a panic, a journal error, an unexplained signal —
# fails the smoke immediately instead of being retried into silence.
set -eu

cd "$(dirname "$0")/.."

SMOKE_NAME=resilience-smoke
. ./scripts/smoke_lib.sh

smoke_require_go

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

bin="$work/cachesweep"
"$GO" build -o "$bin" ./cmd/cachesweep

# One shared trace cache: the golden run pays for trace generation, the
# kill/resume attempts hit the cache so every SIGKILL lands in the
# sweep itself rather than in generation. 128 configurations make 16
# gang units; the journal snapshots every 4 completed units, so a fresh
# sweep writes three snapshots before it finishes.
args="-workload ccom -scale 2 -workers 2 -lines 16,32 -hits wt,wb -tracecache $work/tracecache"

smoke_log "golden run"
# shellcheck disable=SC2086
"$bin" $args > "$work/golden.csv"

ckpt="$work/sweep.ckpt"

# ckpt_sum names the current journal snapshot: its checksum, or "none"
# while there is no journal.
ckpt_sum() {
    cksum "$ckpt" 2>/dev/null || echo none
}

kills=0
interrupts=0
max_kills=3
attempt=0
smoke_log "kill/resume loop (SIGKILL x$max_kills)"
while :; do
    attempt=$((attempt + 1))
    if [ "$attempt" -gt 10 ]; then
        smoke_fail "sweep never completed after $attempt attempts"
    fi
    set +e
    before=$(ckpt_sum)
    # shellcheck disable=SC2086
    "$bin" $args -checkpoint "$ckpt" > "$work/resumed.csv" 2> "$work/stderr.log" &
    pid=$!
    sent_kill=no
    if [ "$kills" -lt "$max_kills" ]; then
        # Kill only once this attempt has journaled a new snapshot, so
        # every kill lands after real progress instead of racing a fixed
        # delay. Stop waiting if the child has already exited (ps shows
        # it gone or a zombie); the 30 s bound only keeps a wedged child
        # from hanging the smoke.
        polls=0
        while [ "$polls" -lt 3000 ]; do
            now=$(ckpt_sum)
            if [ "$now" != none ] && [ "$now" != "$before" ]; then
                break
            fi
            case $(ps -o stat= -p "$pid" 2>/dev/null) in
            "" | Z*) break ;;
            esac
            sleep 0.01
            polls=$((polls + 1))
        done
        if kill -9 "$pid" 2>/dev/null; then
            sent_kill=yes
        fi
    fi
    wait "$pid"
    rc=$?
    set -e
    outcome=$(smoke_classify_exit "$rc" "$sent_kill")
    case "$outcome" in
    ok)
        break
        ;;
    killed)
        kills=$((kills + 1))
        smoke_log "attempt $attempt killed (exit $rc), resuming"
        ;;
    interrupted)
        # Graceful stop (exit 3): checkpointed, resumable — but this
        # script never sends SIGINT/SIGTERM, so surface it for the log
        # and keep resuming rather than miscounting it as a kill.
        interrupts=$((interrupts + 1))
        smoke_log "attempt $attempt interrupted gracefully (exit 3), resuming"
        ;;
    esac
done

if [ "$kills" -eq 0 ]; then
    smoke_fail "no attempt was killed; sweep too fast for the kill window"
fi
if [ -e "$ckpt" ]; then
    smoke_fail "completed sweep left its checkpoint behind"
fi
if ! cmp -s "$work/golden.csv" "$work/resumed.csv"; then
    diff "$work/golden.csv" "$work/resumed.csv" | head -20 >&2
    smoke_fail "resumed CSV differs from uninterrupted run"
fi
smoke_log "OK — survived $kills SIGKILLs ($interrupts graceful interrupts), resumed byte-identical"
