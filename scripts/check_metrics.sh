#!/bin/sh
# check_metrics.sh — static lint over the exported metric families.
#
# Every metric this codebase exports is named by a string literal
# "s3_..." at its construction site (internal/obs constructors). The
# check enforces two invariants:
#
#   1. No duplicate families: each s3_* family name appears at exactly
#      one construction site in non-test source. Two sites registering
#      the same family would panic at runtime on a shared registry —
#      catch it before that.
#   2. No undocumented families: every family constructed in the source
#      is listed in docs/METRICS.md, and every family listed there still
#      exists in the source (no stale docs).
#
# Labelled series (s3_http_requests_total{route=...,code=...}) count by
# family: the label block is stripped before comparison.
#
# Run from the repository root (make vet does).
set -eu

docs=docs/METRICS.md
[ -f "$docs" ] || { echo "check_metrics: $docs missing" >&2; exit 1; }

# Family names at construction sites: string literals starting s3_, with
# any {label...} suffix stripped. Test files may mint throwaway names.
# perfbench/ is a separate Go module that only reads series out of
# /metrics text (including the _sum/_count series of histograms), so it
# holds no construction sites and is not scanned.
src_families=$(grep -rho '"s3_[a-z_]*[{"]' --include='*.go' --exclude='*_test.go' \
	--exclude-dir=perfbench . \
	| sed -e 's/^"//' -e 's/[{"]$//' | sort)

status=0

dups=$(printf '%s\n' "$src_families" | uniq -d)
if [ -n "$dups" ]; then
	echo "check_metrics: families constructed at more than one site (would panic on a shared registry):" >&2
	printf '  %s\n' $dups >&2
	status=1
fi

doc_families=$(grep -o '`s3_[a-z_]*`' "$docs" | tr -d '`' | sort -u)

# comm over process substitution is not POSIX sh; use temp files.
tmpa=$(mktemp) tmpb=$(mktemp)
trap 'rm -f "$tmpa" "$tmpb"' EXIT
printf '%s\n' "$src_families" | uniq > "$tmpa"
printf '%s\n' "$doc_families" > "$tmpb"

undocumented=$(comm -23 "$tmpa" "$tmpb")
if [ -n "$undocumented" ]; then
	echo "check_metrics: families exported but not documented in $docs:" >&2
	printf '  %s\n' $undocumented >&2
	status=1
fi

stale=$(comm -13 "$tmpa" "$tmpb")
if [ -n "$stale" ]; then
	echo "check_metrics: families documented in $docs but no longer exported:" >&2
	printf '  %s\n' $stale >&2
	status=1
fi

[ $status -eq 0 ] && echo "check_metrics: $(wc -l < "$tmpa" | tr -d ' ') families, all unique and documented"
exit $status
