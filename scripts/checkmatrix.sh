#!/usr/bin/env bash
# Run every paper row under every chaos preset with -check, and list
# the runs that fail.
#
# Usage: scripts/checkmatrix.sh [CHECKOUT]
#
# Builds cmd/gridbench in CHECKOUT (default: this script's repository),
# then runs
#
#   gridbench -fig R -scale 0.1 -chaos P -check -seed S -parallel 1
#
# for each row R in 1-7, la, res and net, each preset P the binary
# lists (chaos.Names()) and each seed S in 1 2 3 4 5 7 42. It prints
# one line per run that exits non-zero, sorted: row, plan, seed, exit
# code and the first violation line of the run's stderr (its first line
# when none is a violation), then a count. Exits 1 if any run failed. To show that a change moves
# no check, run it on both checkouts and diff the two outputs.
set -euo pipefail

if [ $# -gt 1 ]; then
	sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
	exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
src=$(cd "${1:-$here/..}" && pwd)
rows="1 2 3 4 5 6 7 la res net"
seeds="1 2 3 4 5 7 42"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

(cd "$src" && go build -o "$work/gridbench" ./cmd/gridbench)
# An unknown plan is answered with every preset's name (and exit 2).
plans=$({ "$work/gridbench" -chaos '?' 2>&1 || true; } | sed -n 's/.*(have: \(.*\))$/\1/p' | tr -d ,)
if [ -z "$plans" ]; then
	echo "checkmatrix: gridbench listed no chaos presets" >&2
	exit 2
fi

runs=0
for row in $rows; do
	for plan in $plans; do
		for seed in $seeds; do
			runs=$((runs + 1))
			code=0
			"$work/gridbench" -fig "$row" -scale 0.1 -chaos "$plan" -check -seed "$seed" -parallel 1 \
				>/dev/null 2>"$work/err" || code=$?
			if [ "$code" -ne 0 ]; then
				first=$(awk '/^  /{sub(/^ +/, ""); print; exit}' "$work/err")
				[ -n "$first" ] || first=$(head -n 1 "$work/err")
				printf '%s\t%s\t%s\texit %d\t%s\n' "$row" "$plan" "$seed" "$code" "$first" >>"$work/failed"
			fi
		done
	done
done

touch "$work/failed"
LC_ALL=C sort -t "$(printf '\t')" -k1,1 -k2,2 -k3,3n "$work/failed"
failed=$(wc -l <"$work/failed")
echo "# $failed of $runs runs failed"
[ "$failed" -eq 0 ]
