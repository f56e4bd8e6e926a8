#!/usr/bin/env bash
# Production LOC report: non-test .go lines per package of the root
# module, then the total. perfbench/ is a separate module and is left
# out. Net production LOC of a change is the difference between the
# report at the change and at its parent.
set -euo pipefail
cd "$(dirname "$0")/.."

module=$(awk '/^module / { print $2; exit }' go.mod)
find . \( -path ./perfbench -o -path ./.git \) -prune -o \
    -type f -name '*.go' ! -name '*_test.go' -print |
  while read -r f; do
    dir=$(dirname "$f")
    printf '%s %s\n' "${module}${dir#.}" "$(wc -l < "$f")"
  done |
  awk '{ n[$1] += $2; total += $2 }
       END { for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
