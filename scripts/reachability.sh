#!/usr/bin/env bash
# Reachability rule: every package must be linked into a shipped root —
# cmd/evilbloom, cmd/evillint or bench/ — or be one of the two named test
# harnesses. A package that only its own tests (or nothing) reach fails,
# and so does one made of _test.go files alone.
set -euo pipefail
cd "$(dirname "$0")/.."

harness='^evilbloom/internal/(mesh/meshtest|lint/analysistest)$'
unreached=$(comm -23 <(go list ./internal/... | sort) <(go list -deps ./cmd/... ./bench/... | sort) | grep -Ev "$harness" || true)
testonly=$(go list -f '{{if not .GoFiles}}{{.ImportPath}}{{end}}' ./...)
if [[ -n "$unreached$testonly" ]]; then
  [[ -z "$unreached" ]] || printf 'reached by no shipped binary: %s\n' $unreached >&2
  [[ -z "$testonly" ]] || printf 'only _test.go files: %s\n' $testonly >&2
  exit 1
fi
echo "reachability: OK (every package is linked into cmd/ or bench/)"
