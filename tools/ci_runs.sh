#!/bin/sh
# The rotpol runs CI checks, each stated once: each `run NAME COMMAND ARGS...`
# line runs the rotpol under SRC into OUT/NAME, with every ARG appended.
set -e
[ $# -ge 2 ] || { echo "usage: sh tools/ci_runs.sh SRC OUT [ARG ...]" >&2; exit 2; }
src=$1 out=$2 extra= i=0
shift 2
# each ARG as "$argN" in the text run evals, so none is split or expanded
for arg; do
    i=$((i + 1)); eval "arg$i=\$arg"; extra="$extra \"\$arg$i\""
done
run() {
    name=$1
    shift
    eval 'PYTHONPATH=$src python -m rotpolariton.cli "$@" --out "$out/$name"'"$extra"
}
cfg=$(mktemp -d)
trap 'rm -rf "$cfg"' EXIT
# a composite scan at three bandwidths off the fig5 grid
printf 'scan:\n  kind: composite\n  bandwidths_g: [0.3, 0.6, 1.2]\n' > "$cfg/composite.yaml"
# with the cavity on and off: the bare records run on the rotor alone;
# at 0.1 g over the long window kick_scan times, bare rows certify in
# the pilot pair and dressed ones take 3 runs
printf 'scan:\n  detunings_g: [0.0, -1.3, 0.7]\n  bandwidths_g: [0.1, 1.0]\n  cavity: [true, false]\n' > "$cfg/detuning.yaml"
# a design at non-integer w_lo/g, where a root sits on an angle jump
printf 'system:\n  coupling_ratio: 0.3\nfield:\n  bandwidth_g: 0.05\n  phase_minus: 1.0\n' > "$cfg/offgrid.yaml"
# a composite field on the rotor alone: its carriers sit around the 0-1 line
printf 'field:\n  kind: composite\n  bandwidth_g: 1.0\n  carriers: [{detuning_g: 0.0}, {detuning_g: 1.0, phase: 0.5}]\n' > "$cfg/bare_composite.yaml"
# a simulate whose one sample interval spans the field window: the
# kernel splits it at breakpoints it does not return
printf 'experiment:\n  n_trajectory: 2\n' > "$cfg/one_interval.yaml"
# every command and every preset, and each config above
run bare simulate --preset bare
run bare_composite simulate --preset bare --config "$cfg/bare_composite.yaml"
run one_interval simulate --preset bare --config "$cfg/one_interval.yaml"
run fig4 simulate --preset fig4
run design design
run offgrid design --config "$cfg/offgrid.yaml"
run oracle oracle
run fig2 scan --preset fig2
run fig3 scan --preset fig3
run fig5 scan --preset fig5
run composite scan --config "$cfg/composite.yaml"
run detuning scan --config "$cfg/detuning.yaml"
