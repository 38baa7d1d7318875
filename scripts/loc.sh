#!/usr/bin/env bash
# Prints the repo's non-test Go line count, the number every PR since ISSUE 15
# reports before and after: tracked .go files outside _test.go, the load
# harness (cmd/ccload) and analyzer testdata. Informational; nothing gates on
# it.
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^cmd/ccload/' | grep -v '/testdata/' | xargs cat | wc -l
