#!/usr/bin/env bash
# Golden-report corpus driver (tests/golden.rs <-> tests/golden/*.json).
#
#   scripts/golden.sh           # verify: byte-for-byte diff against corpus
#   scripts/golden.sh --bless   # refresh the corpus after an intended change
#
# Bless output is deterministic (round-robin/seeded feeds, observability
# snapshot zeroed), so a clean `git diff` after bless means nothing
# user-visible moved.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--bless" ]]; then
  GOLDEN_BLESS=1 cargo test -q --test golden
  echo "golden corpus refreshed under tests/golden/ — review with git diff"
else
  cargo test -q --test golden
fi
