#!/bin/sh
# Net line delta of the working tree against a base ref.
#
#   scripts/loc_delta.sh <base-ref>      (or: make loc-delta BASE=<base-ref>)
#
# Counts every *.go file except *_test.go and anything under a testdata/
# directory.  Test Go (*_test.go) and assembly (*.s) are reported on lines
# of their own, so code moved from a program file into a test reads as a
# move, not a reduction; the benchmark module under perfbench/ has its own
# line too.  Tracked files are compared as they stand in the working tree,
# so a new file counts once it is added to the index (git add).
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: $0 <base-ref>" >&2
	exit 2
fi
base=$1
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "$0: unknown ref $base" >&2
	exit 2
}

# delta LABEL PATHSPEC... prints "+added -deleted = net" for the pathspecs.
delta() {
	label=$1
	shift
	git diff --numstat "$base" -- "$@" |
		awk -v label="$label" '{ a += $1; d += $2 } END { printf "%s: +%d -%d = %+d\n", label, a, d, a - d }'
}

delta "non-test Go" '*.go' ':(exclude)perfbench/*' ':(exclude)*_test.go' ':(exclude)*/testdata/*'
delta "test Go" '*_test.go' ':(exclude)perfbench/*' ':(exclude)*/testdata/*'
delta "assembly" '*.s' ':(exclude)perfbench/*'
delta "perfbench non-test Go" 'perfbench/*.go' ':(exclude)*_test.go' ':(exclude)*/testdata/*'
