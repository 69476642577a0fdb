#!/usr/bin/env bash
# Command-line integration test for `compare <workload>`, `sequential`
# and the per-command flag table of the rigorbench CLI.
#
# Drives the real binary end to end:
#   1. `compare <workload>` and `sequential` print the same report and
#      write byte-identical --metrics/--trace (and, for sequential,
#      --json/--csv) artifacts at --jobs 1 and --jobs 4, with and
#      without an injected checksum fault;
#   2. a flag the command does not accept is a usage error (exit 1)
#      that names the flag and creates no file;
#   3. `archive list --json -` writes exactly one JSON document to
#      stdout;
#   4. a malformed job id for `status`/`cancel` is a usage error.
#
# Usage: cli_commands_test.sh /path/to/rigorbench
set -u

BIN=${1:?usage: $0 /path/to/rigorbench}
# Absolute, because the checks below run inside scratch directories.
BIN=$(cd "$(dirname "$BIN")" && pwd)/$(basename "$BIN")
WORK=$(mktemp -d /tmp/rigor_cli_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

FLAGS=(--invocations 4 --iterations 3 --size 40 --seed 0xfeed)

# --- 1. compare <workload> and sequential across --jobs --------------
for fault in none checksum:inv=1:n=1; do
    inject=()
    [ "$fault" = none ] || inject=(--inject "$fault")
    for jobs in 1 4; do
        d="$WORK/$fault-$jobs"
        mkdir -p "$d"
        (cd "$d" &&
            "$BIN" compare sieve "${FLAGS[@]}" "${inject[@]}" \
                --jobs "$jobs" --metrics cm.json --trace ct.json \
                >compare.txt 2>/dev/null) ||
            fail "compare --jobs $jobs ($fault) exited $?"
        (cd "$d" &&
            "$BIN" sequential nbody "${FLAGS[@]}" "${inject[@]}" \
                --tier adaptive --jobs "$jobs" --json sj.json \
                --csv sc.csv --metrics sm.json --trace st.json \
                >sequential.txt 2>/dev/null) ||
            fail "sequential --jobs $jobs ($fault) exited $?"
    done
    for f in compare.txt cm.json ct.json sequential.txt sj.json sc.csv \
        sm.json st.json; do
        cmp -s "$WORK/$fault-1/$f" "$WORK/$fault-4/$f" ||
            fail "$f differs between --jobs 1 and --jobs 4 ($fault)"
    done
done
grep -q "^speedup (adaptive over interp): " "$WORK/none-1/compare.txt" ||
    fail "compare printed no speedup line"
grep -q "^  sequential: " "$WORK/none-1/sequential.txt" ||
    fail "sequential printed no convergence line"
grep -q '"harness.faults_injected"' "$WORK/checksum:inv=1:n=1-1/cm.json" ||
    fail "the injected fault left no trace in the compare metrics"
echo "ok: compare/sequential byte-identical across --jobs"

# --- 2. inapplicable flags are usage errors --------------------------
mkdir -p "$WORK/arch-src"
(cd "$WORK/arch-src" &&
    "$BIN" run sieve --invocations 2 --iterations 2 --size 40 \
        --archive arch --quiet >/dev/null 2>&1) ||
    fail "seeding the archive failed"

reject() { # reject <flag> <args...>: exit 1, flag named, no file made
    local flag=$1
    shift
    local d="$WORK/reject-$RANDOM$RANDOM"
    mkdir -p "$d"
    cp -r "$WORK/arch-src/arch" "$d/arch"
    local before
    before=$(cd "$d" && find . | sort)
    (cd "$d" && "$BIN" "$@" >out.txt 2>err.txt)
    local rc=$?
    [ "$rc" -eq 1 ] || fail "'$*' exited $rc (want 1)"
    grep -q -- "$flag" "$d/err.txt" ||
        fail "'$*' did not name $flag: $(cat "$d/err.txt")"
    [ "$(cd "$d" && find . ! -name out.txt ! -name err.txt | sort)" = \
        "$before" ] || fail "'$*' created a file"
    [ -s "$d/out.txt" ] && fail "'$*' wrote to stdout"
    return 0
}
reject --json compare sieve --json F
reject --resume run sieve --resume F
reject --label sequential sieve --label x
reject --trace list --trace F
reject --metrics profile sieve --metrics F
reject --metrics disasm sieve --metrics F
reject --metrics archive list --archive arch --json - --metrics F
reject --trace archive list --archive arch --json - --trace F
reject --archive compare sieve --archive arch
echo "ok: inapplicable flags exit 1, name the flag, create no file"

# --- 3. archive list --json - is one JSON document -------------------
for extra in "" --quiet; do
    # shellcheck disable=SC2086  # $extra is zero or one flag
    "$BIN" archive list --archive "$WORK/arch-src/arch" --json - $extra \
        >"$WORK/list.json" || fail "archive list --json - $extra failed"
    python3 -c 'import json,sys; json.load(sys.stdin)' \
        <"$WORK/list.json" ||
        fail "archive list --json - $extra is not one JSON document"
done
echo "ok: archive list --json - writes exactly one JSON document"

# --- 4. malformed job ids --------------------------------------------
for cmd in status cancel; do
    "$BIN" "$cmd" abc --socket "$WORK/no.sock" >/dev/null 2>&1
    rc=$?
    [ "$rc" -eq 1 ] || fail "$cmd abc exited $rc (want 1)"
done
echo "ok: malformed job ids are usage errors"

echo "PASS: cli commands"
