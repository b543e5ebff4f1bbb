#!/usr/bin/env bash
# Run the static analysis CI runs outside go test, locally: gofmt and
# go vet, plus govulncheck when it is installed or installable (offline
# environments skip it with a note). slugvet, the repo's own invariant
# suite, runs inside go test ./... as TestRepoPassesSlugvet; see README
# "Static analysis".
#
# Usage: scripts/lint.sh  (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needs to be run on:" >&2
    echo "$unformatted" >&2
    fail=1
else
    echo "ok"
fi

echo "== go vet =="
if go vet ./...; then
    echo "ok"
else
    fail=1
fi

echo "== govulncheck =="
govulncheck="$(go env GOPATH)/bin/govulncheck"
if [ ! -x "$govulncheck" ]; then
    go install golang.org/x/vuln/cmd/govulncheck@latest 2>/dev/null || true
fi
if [ -x "$govulncheck" ]; then
    if "$govulncheck" ./...; then
        echo "ok"
    else
        fail=1
    fi
else
    echo "govulncheck unavailable (offline?); skipped"
fi

exit "$fail"
