#!/bin/sh
# The command BENCHMARK.json names: build the benchmark from source, then run
# it with the arguments given. Everything the go tool writes — build cache,
# temporary files, the binary — stays under .bench_build in the checkout, so
# the run needs no writable $HOME and leaves nothing outside the checkout.
#
#	sh bench/run.sh -workload week_emulated -seed 2
#
# is `go run ./bench -workload week_emulated -seed 2` built that way.
set -eu

if [ ! -f go.mod ] || [ ! -f bench/main.go ]; then
	echo "bench: run from the repository root (sh bench/run.sh): no go.mod or bench/main.go here" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	PATH=$PATH:/usr/local/go/bin
	command -v go >/dev/null 2>&1 || { echo "bench: no go tool on PATH" >&2; exit 2; }
fi

build=$(pwd)/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local

# With a warm cache this is a no-op of a few hundred milliseconds; the first
# build in a checkout compiles the standard library too.
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
