#!/bin/sh
# Prints the repository's non-test line count: the lines of every `.rs`
# file under `crates/` and `examples/` outside `tests/` directories, up to
# the file's first `#[cfg(test)]`. Run it from the repository root.
set -eu
find crates examples -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    xargs -0 awk 'FNR==1{skip=0} /#\[cfg\(test\)\]/{skip=1} !skip{n++} END{print n}' |
    awk '{n += $1} END{print n}' # xargs may split a long file list
