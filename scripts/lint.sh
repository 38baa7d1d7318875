#!/usr/bin/env bash
# Runs the repo's static-analysis suite:
#
#   cclint       — the in-tree go/analysis suite (poolescape, storemut,
#                  hotpathalloc) enforcing the pool, frozen-store and
#                  hot-path invariants, through go vet -vettool (its only
#                  mode); always runs, no network needed. The refresh lock
#                  order is not its business: internal/refresh/staged.go
#                  makes it structural.
#   staticcheck  — general Go correctness/simplification checks.
#   govulncheck  — known-vulnerability scan of the dependency graph.
#
# The last two are skipped with a notice when the tool is not installed
# (offline development containers); CI installs pinned versions and runs all
# three. Any finding fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

echo "== cclint (go vet -vettool)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/cclint" ./cmd/cclint
go vet -vettool="$tmp/cclint" ./... || status=1

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./... || status=1
else
    echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"
fi

echo "== govulncheck"
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./... || status=1
else
    echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@v1.1.4)"
fi

exit $status
