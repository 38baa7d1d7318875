#!/usr/bin/env bash
# Runs the repo's static-analysis suite:
#
#   staticcheck  — general Go correctness/simplification checks.
#   govulncheck  — known-vulnerability scan of the dependency graph.
#
# Each is skipped with a notice when the tool is not installed (offline
# development containers); CI installs pinned versions and runs both. Any
# finding fails the script. The repo's own invariants (allocation-free hot
# paths, the frozen store, pooled scratch never escaping) are held by tests,
# not here: see README, "Invariants and the tests that hold them".
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

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
