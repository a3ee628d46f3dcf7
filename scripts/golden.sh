#!/usr/bin/env bash
# Run a fixed set of wsnl commands against the source of one checkout and keep
# every output, so that two checkouts can be compared byte for byte:
#
#   scripts/golden.sh OLD_CHECKOUT /tmp/golden-old
#   scripts/golden.sh NEW_CHECKOUT /tmp/golden-new
#   diff -r /tmp/golden-old /tmp/golden-new
#
# CHECKOUT/src goes on PYTHONPATH.  Each command runs from inside OUT with a
# relative --out NAME, so that no absolute path reaches its outputs (`sample`
# prints its output directory), and stderr names CHECKOUT/src as SRC.  Its
# files land in OUT/NAME/, and its stdout, stderr and exit status in
# OUT/NAME.stdout, OUT/NAME.stderr and OUT/NAME.status.  The set is every
# subcommand at small scale, both solver modes (at d = 2 too, whose W^{-s,4}
# trace takes the physical-space norm, and at K = 7 and K = 100, whose
# linspace time grids differ from dt = T/K at round-off), the global-mode
# blow-up, chunked and threaded studies, sampling in blocks, the converge and
# cauchy defaults, converge at d = 2 (its batched march localizes on a box of
# the cutoff's support in both axes; its verdict FAILs at M = 100), cauchy at
# K = 4, hoelder at K = 64 (its lags read on a finer grid than the default
# K = 32), converge runs in which some members and all members blow up and
# are excluded, four degenerate ladders whose verdicts FAIL (cauchy-flat:
# no lattice mode in any annulus; smoothing-flat: an empty exact pair set;
# renorm-flat and smoothing-zero: rungs whose balls hold the zero mode alone,
# so an increment is 0), and d >= 2 beyond solves, where a real field's
# transform is the exact completion of its half spectrum: covariance and a
# solve at d = 3, a sample at d = 2 (its snapshot files hold every array of
# the path), and smoothing at d = 2 (its verdicts FAIL at M = 100); a run
# takes under a minute on 2 cores.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 CHECKOUT OUT" >&2
    exit 2
fi
src="$(cd "$1" && pwd)/src"
mkdir -p "$2"
cd "$2" || exit 2

run() {
    local name=$1
    shift
    PYTHONPATH="$src" python3 -m wsnl.cli "$@" --out "$name" >"$name.stdout" 2>"$name.stderr"
    echo $? >"$name.status"
    # warnings name their source file: keep the checkout's path out of them
    sed -i "s#$src#SRC#g" "$name.stderr"
}

run constants-d1 constants
run constants-d2 constants --set d=2
run sample-small sample --set M=2 --set N=64 --set n=8 --set K=16
run sample-default sample --set M=2
run sample-blocks sample --set M=5 --set chunk=2
run solve-local solve
run solve-global solve --set solver_mode=global
run solve-local-K100 solve --set K=100
run solve-global-K100 solve --set solver_mode=global --set K=100
run solve-local-T03 solve --set T=0.3 --set K=7
run solve-global-T03 solve --set T=0.3 --set K=7 --set solver_mode=global
d2=(--set d=2 --set N=32 --set n=8 --set K=8)
run solve-local-d2 solve "${d2[@]}"
run solve-global-d2 solve "${d2[@]}" --set solver_mode=global
blowup=(--set n=64 --set N=128 --set T=1 --seed 3)
for K in 1 4; do
    run "blowup-local-K$K" solve "${blowup[@]}" --set K=$K
    run "blowup-global-K$K" solve "${blowup[@]}" --set K=$K --set solver_mode=global
done
cov=(--set M=200 --set N=64 --set n=8 --set chunk=100)
for K in 32 16 4; do
    run "covariance-K$K" covariance "${cov[@]}" --set K=$K
done
run covariance-threads covariance --set M=230 --set N=64 --set n=8 --set K=32 \
    --set chunk=70 --threads 2
run renorm renorm
run renorm-flat renorm --set ladder=0.1,0.2,0.4,0.8
run cauchy-M100 cauchy --set M=100
run cauchy-chunked cauchy --set M=150 --set chunk=40
run cauchy-threads cauchy --set M=150 --set chunk=40 --threads 2
run cauchy-default cauchy
run cauchy-flat cauchy --set M=100 --set ladder=0.1,0.2,0.4
run cauchy-K4 cauchy --set M=100 --set K=4
run smoothing-M100 smoothing --set M=100
run smoothing-chunked smoothing --set M=100 --set K=64 --set chunk=30
run smoothing-flat smoothing --set M=100 --set N=64 --set K=16 --set ladder=0.125,0.25,0.5,1
run smoothing-zero smoothing --set M=100 --set N=64 --set K=16 --set ladder=0.1,0.2,0.4,0.8
run hoelder-M100 hoelder --set M=100
run hoelder-chunked hoelder --set M=120 --set chunk=50
run hoelder-threads hoelder --set M=120 --set chunk=50 --threads 2
run hoelder-K64 hoelder --set M=100 --set K=64
conv=(--set M=100 --set chunk=45 --set ladder=4,8,16 --set N=256 --set K=64)
run converge-small converge "${conv[@]}"
run converge-threads converge "${conv[@]}" --threads 2
run converge-global converge "${conv[@]}" --set solver_mode=global
run converge-M100 converge --set M=100
run converge-d2 converge --set d=2 --set N=32 --set ladder=1,2 --set K=8 --set M=100
excluded=(--set M=100 --set N=128 --set chunk=100 --set T=1 --set ladder=2,4)
for K in 4 1; do
    run "converge-blowup-K$K" converge "${excluded[@]}" --set K=$K
done
run covariance-d3 covariance --set d=3 --set N=16 --set n=4 --set M=200 --set K=16 --set chunk=100
run solve-d3 solve --set d=3 --set N=16 --set n=4 --set K=8
run sample-d2 sample --set d=2 --set N=32 --set n=8 --set K=8 --set M=2
run smoothing-d2 smoothing --set d=2 --set N=32 --set M=100 --set K=16 --set ladder=0.25,0.5,1,2
