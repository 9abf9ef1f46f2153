#!/usr/bin/env bash
# Compare what two checkouts' gridbench prints, writes and exits with.
#
# Usage: scripts/figdiff.sh OLD_CHECKOUT NEW_CHECKOUT
#
# Builds cmd/gridbench in each checkout, then runs every figure row at
# -parallel 1 for each seed in SEEDS (default "1 7 42"), each backend in
# BACKENDS (default "sim gridd"; a row that refuses a backend is
# compared on its refusal) and each of four plans: none,
# "-chaos mixed -check", "-chaos stuck-holder -check" and
# "-trace-summary" (which also writes a -trace JSONL file). ROWS
# (default: every row the old binary lists) narrows the rows. The scale
# is 0.25 for abl and ext, 0.01 for scale and 0.1 for the rest.
#
# Per run it compares stdout (less the wall-clock "# generated in" and
# "# timing:" lines), stderr, the exit code and the trace file, and it
# keeps every run's -metrics dump. It then runs scripts/metricsdiff.py
# on the two sets of dumps both ways, so that a series missing from
# either side, or changed, is a difference. Exits 1 on any difference.
# Work files go to FIGDIFF_DIR (default: a fresh temporary directory),
# which is left in place for inspection.
set -euo pipefail

if [ $# -ne 2 ]; then
	sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
	exit 2
fi
old=$(cd "$1" && pwd)
new=$(cd "$2" && pwd)
here=$(cd "$(dirname "$0")" && pwd)
work=${FIGDIFF_DIR:-$(mktemp -d)}
seeds=${SEEDS:-"1 7 42"}
backends=${BACKENDS:-"sim gridd"}
plans=("" "-chaos mixed -check" "-chaos stuck-holder -check" "-trace-summary")

for side in old new; do
	mkdir -p "$work/$side/metrics"
	(cd "${!side}" && go build -o "$work/$side/gridbench" ./cmd/gridbench)
done
# An unknown -fig is answered with every row's name (and exit code 2).
rows=${ROWS:-$({ "$work/old/gridbench" -fig '?' 2>&1 || true; } | awk '/^  /{print $1}')}

# run SIDE KEY ARGS...: one gridbench run, its outputs under $work/SIDE.
run() {
	local side=$1 key=$2 dir=$work/$1
	shift 2
	local code=0
	"$dir/gridbench" -parallel 1 -metrics "$dir/metrics/$key.jsonl" "$@" \
		>"$dir/out" 2>"$dir/err" || code=$?
	grep -v -e '^# generated in' -e '^# timing:' "$dir/out" >"$dir/$key.out" || true
	mv "$dir/err" "$dir/$key.err"
	echo "$code" >"$dir/$key.code"
}

runs=0 diffs=0
for row in $rows; do
	case $row in
	abl | ext) scale=0.25 ;;
	scale) scale=0.01 ;;
	*) scale=0.1 ;;
	esac
	for seed in $seeds; do
		for be in $backends; do
			for i in "${!plans[@]}"; do
				key=$row.s$seed.$be.p$i
				args=(-fig "$row" -scale "$scale" -seed "$seed" -backend "$be")
				read -ra plan <<<"${plans[$i]}"
				for side in old new; do
					extra=()
					if [ "${plans[$i]}" = -trace-summary ]; then
						extra=(-trace "$work/$side/trace.jsonl")
					fi
					rm -f "$work/$side/trace.jsonl"
					run "$side" "$key" "${args[@]}" ${plan[@]+"${plan[@]}"} ${extra[@]+"${extra[@]}"}
				done
				runs=$((runs + 1))
				for ext in out err code; do
					if ! cmp -s "$work/old/$key.$ext" "$work/new/$key.$ext"; then
						echo "DIFFERS $key ($ext): ${args[*]} ${plans[$i]}"
						diff "$work/old/$key.$ext" "$work/new/$key.$ext" | head -20 || true
						diffs=$((diffs + 1))
					fi
				done
				if [ -e "$work/old/trace.jsonl" ] || [ -e "$work/new/trace.jsonl" ]; then
					if ! cmp -s "$work/old/trace.jsonl" "$work/new/trace.jsonl"; then
						echo "DIFFERS $key (trace): ${args[*]} ${plans[$i]}"
						diffs=$((diffs + 1))
					fi
				fi
			done
		done
	done
done
rm -f "$work/old/trace.jsonl" "$work/new/trace.jsonl"

# A dump only one side wrote is a difference; metricsdiff.py compares
# the rest, each way round, so that a series only in NEW counts too.
if ! diff <(ls "$work/old/metrics") <(ls "$work/new/metrics"); then
	echo "DIFFERS: the two sides wrote different -metrics dumps"
	diffs=$((diffs + 1))
fi
for way in "old new" "new old"; do
	read -r a b <<<"$way"
	if ! python3 "$here/metricsdiff.py" "$work/$a/metrics" "$work/$b/metrics" >"$work/metricsdiff.$a-$b.txt"; then
		grep -e DIFFERS -e 'series missing' "$work/metricsdiff.$a-$b.txt" || true
		echo "DIFFERS: metricsdiff.py $a $b (see $work/metricsdiff.$a-$b.txt)"
		diffs=$((diffs + 1))
	fi
done
dumps=$(ls "$work/old/metrics" | wc -l)
echo "figdiff: $runs runs per side, $dumps metrics dumps; $diffs differences (work files in $work)"
[ "$diffs" -eq 0 ]
