#!/bin/sh
# CLI flag contract for famsim_cli: checked numeric parsing must
# reject garbage and out-of-range values with exit 2 naming the flag
# (not silently truncate or abort), a System no STU can be built for
# is a config fatal (exit 1), and flags that a mode ignores must say so
# on stderr while the run still succeeds. Covers the --sweep-jobs
# executor flag end to end: parse errors, the ignored-without---sweep
# warning, the FAMSIM_SWEEP_JOBS default, and byte-identical sweep JSON
# across job counts.
#
# Usage: cli_flags.sh <path-to-famsim_cli>
set -eu

cli=$1

work=$(mktemp -d "${TMPDIR:-/tmp}/famsim_cli_flags.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# --- checked parsing: garbage exits 2, never runs -------------------
for bad in garbage 4x -3 0 1025; do
    if "$cli" --sweep fig14_acm_size --sweep-jobs "$bad" \
        > /dev/null 2> "$work/err.txt"; then
        fail "--sweep-jobs $bad was accepted"
    else
        status=$?
        [ "$status" -eq 2 ] ||
            fail "--sweep-jobs $bad exited $status, expected 2"
    fi
    grep -q "sweep-jobs" "$work/err.txt" ||
        fail "--sweep-jobs $bad error does not name the flag"
done

# --- zero fabric latency is a usage error, not a serial fallback -----
if "$cli" --instr 2000 --fabric-ns 0 > /dev/null 2> "$work/err.txt"; then
    fail "--fabric-ns 0 was accepted"
else
    status=$?
    [ "$status" -eq 2 ] || fail "--fabric-ns 0 exited $status, expected 2"
fi
grep -q "fabric-ns" "$work/err.txt" ||
    fail "--fabric-ns 0 error does not name the flag"

# --- zero instructions is a usage error, not an empty trace ---------
if "$cli" --record "$work/empty.trace" --instr 0 \
    > /dev/null 2> "$work/err.txt"; then
    fail "--instr 0 was accepted"
else
    status=$?
    [ "$status" -eq 2 ] || fail "--instr 0 exited $status, expected 2"
fi
grep -q "for --instr" "$work/err.txt" ||
    fail "--instr 0 error does not name the flag"

# --- out-of-range config values exit 2 and name the flag, every mode
for bad in "--cores 0" "--nodes 0" "--stu-entries 0" "--stu-assoc 0" \
    "--acm-bits 0" "--acm-bits 7" "--pairs 0" "--pairs 4" "--arch bogus" \
    "--bench bogus"; do
    flag=${bad%% *}
    # $bad splits into the flag and its value.
    if "$cli" --instr 2000 $bad > /dev/null 2> "$work/err.txt"; then
        fail "$bad was accepted"
    else
        status=$?
        [ "$status" -eq 2 ] || fail "$bad exited $status, expected 2"
    fi
    grep -q "for $flag " "$work/err.txt" ||
        fail "$bad error does not name the flag"
done
if "$cli" --scenario fig14_acm_size.b16 --arch bogus \
    > /dev/null 2> "$work/err.txt"; then
    fail "--arch bogus was accepted under --scenario"
else
    status=$?
    [ "$status" -eq 2 ] ||
        fail "--scenario with --arch bogus exited $status, expected 2"
fi

# --- geometry no STU can build is a config fatal, not an abort ------
if "$cli" --instr 2000 --stu-entries 100 > /dev/null 2> "$work/err.txt"
then
    fail "--stu-entries 100 with 8 ways was accepted"
else
    status=$?
    [ "$status" -eq 1 ] ||
        fail "--stu-entries 100 exited $status, expected 1"
fi
grep -q "^fatal: stu.entries" "$work/err.txt" ||
    fail "--stu-entries 100 did not report a config fatal"

# --- an unused --trace-filter warns ---------------------------------
"$cli" --instr 2000 --trace-filter psim > /dev/null 2> "$work/warn.txt" ||
    fail "--trace-filter without --trace-out broke the run"
grep -q "warn: --trace-filter is ignored without --trace-out" \
    "$work/warn.txt" || fail "missing unused --trace-filter warning"

# --- --sweep-jobs without --sweep warns but still runs --------------
"$cli" --bench mcf --instr 2000 --sweep-jobs 2 \
    > /dev/null 2> "$work/warn.txt" ||
    fail "--sweep-jobs without --sweep broke the run"
grep -q "warn: --sweep-jobs is ignored without" "$work/warn.txt" ||
    fail "missing ignored-without---sweep warning"

# --- pinned modes warn about ignored config flags -------------------
"$cli" --scenario fig14_acm_size.b16 --stu-entries 512 --threads 0 \
    > "$work/pinned.json" 2> "$work/pinned_err.txt" ||
    fail "--scenario run with an ignored flag broke"
grep -q "warn: --stu-entries is ignored" "$work/pinned_err.txt" ||
    fail "missing pinned-flag warning for --stu-entries"
"$cli" --scenario fig14_acm_size.b16 --threads 0 > "$work/plain.json" \
    2> /dev/null
cmp -s "$work/pinned.json" "$work/plain.json" ||
    fail "the ignored flag changed the pinned scenario output"

# --- repeated warns are rate-limited to one line + a final count ----
"$cli" --scenario fig14_acm_size.b16 --stu-entries 512 \
    --stu-entries 256 --threads 0 > /dev/null 2> "$work/dedup_err.txt" ||
    fail "repeated ignored flag broke the run"
count=$(grep -c "warn: --stu-entries is ignored" "$work/dedup_err.txt")
[ "$count" -eq 1 ] ||
    fail "repeated warn printed $count times, expected once"
grep -q "warn: suppressed 1 repeat of: --stu-entries is ignored" \
    "$work/dedup_err.txt" ||
    fail "missing suppressed-repeats line for the duplicated flag"

# --- sweep JSON is byte-identical for every job count ---------------
"$cli" --sweep fig14_acm_size --json --sweep-jobs 1 \
    > "$work/sweep_j1.json" 2> /dev/null
"$cli" --sweep fig14_acm_size --json --sweep-jobs 3 \
    > "$work/sweep_j3.json" 2> /dev/null
cmp -s "$work/sweep_j1.json" "$work/sweep_j3.json" ||
    fail "--sweep-jobs 3 export diverged from --sweep-jobs 1"

# --- FAMSIM_SWEEP_JOBS seeds the default, malformed values warn -----
FAMSIM_SWEEP_JOBS=2 "$cli" --sweep fig14_acm_size --json \
    > "$work/sweep_env.json" 2> /dev/null
cmp -s "$work/sweep_j1.json" "$work/sweep_env.json" ||
    fail "FAMSIM_SWEEP_JOBS=2 export diverged from --sweep-jobs 1"
for bogus in bogus -1; do
    FAMSIM_SWEEP_JOBS=$bogus "$cli" --sweep fig14_acm_size --json \
        > "$work/sweep_bogus.json" 2> "$work/env_err.txt" ||
        fail "FAMSIM_SWEEP_JOBS=$bogus broke the run"
    grep -q "ignoring malformed FAMSIM_SWEEP_JOBS" "$work/env_err.txt" ||
        fail "FAMSIM_SWEEP_JOBS=$bogus did not warn"
    cmp -s "$work/sweep_j1.json" "$work/sweep_bogus.json" ||
        fail "FAMSIM_SWEEP_JOBS=$bogus changed the export"
done

echo "flag contract OK: $(wc -c < "$work/sweep_j1.json") sweep bytes stable"
