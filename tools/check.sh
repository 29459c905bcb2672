#!/usr/bin/env bash
# Tier-1 verify: configure, build everything, run the full ctest suite.
# This is exactly what CI runs on every push; run it before sending a PR.
#
# Usage: tools/check.sh [build-dir]

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR"
ctest --output-on-failure --no-tests=error -j"$(nproc)"
