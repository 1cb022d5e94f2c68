#!/usr/bin/env bash
# Prints the non-test Go source lines of each package directory and the
# total, leaving out the benchmark module under perfbench/ and build
# output under .bench_build/:
#
#   bash scripts/loc.sh [root]
#
# root defaults to the current directory. Lines are physical lines, as
# wc -l counts them (blank and comment lines included), so two trees can
# be compared with the same command.
set -euo pipefail

cd "${1:-.}"
per_dir=$(find . \( -path ./.git -o -path ./perfbench -o -path ./.bench_build \) -prune -o \
	-type f -name '*.go' ! -name '*_test.go' -print0 |
	xargs -0 wc -l | awk '
		$2 == "total" { next }
		{
			dir = $2
			sub(/\/[^\/]*$/, "", dir)
			sub(/^\.\/?/, "", dir)
			lines[dir == "" ? "." : dir] += $1
		}
		END { for (d in lines) printf "%7d  %s\n", lines[d], d }' | sort -k2)
echo "$per_dir"
echo "$per_dir" | awk '{ total += $1 } END { printf "%7d  total\n", total }'
