#!/usr/bin/env bash
# Every console-script command CI runs, with the exit code each must give.
# Run from the root of a checkout with the package installed; CI runs it with
# PYTHONWARNINGS=error::RuntimeWarning, on the latest numpy and on the oldest
# numpy pyproject.toml accepts.
set -eo pipefail

# a bare import loads neither numpy nor any submodule: each name loads its
# module on first read
python -c "import sys, hypercnot
loaded = [m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'hypercnot.'))]
assert not loaded, loaded"
hypercnot --help > /dev/null

hypercnot verify --n-cases 20 --seed 1
hypercnot verify --n-cases 20 --seed 1 --n-targets 3
# many chunks of cases, each drawn in one call (ten chunks at N = 1)
hypercnot verify --n-cases 20000 --seed 3
hypercnot verify --n-cases 20000 --seed 3 --n-targets 5
# an explicit balanced scale takes the spectral path, not the T^2 shortcut
hypercnot verify --n-cases 20 --seed 1 --n-targets 3 --mirror-override 1
hypercnot sample --control +,+ --target +,+ --target +,+ --target +,+ \
  --target +,+ --target +,+ --target +,+ --target +,+ --target +,+ --target +,+ \
  --shots 1000 --seed 1 --g 3.3 --kappa-s 0.1 --gamma 0.1
hypercnot run --control +,+ --target +,+ --format json --g 3.3 --kappa-s 0.1 --gamma 0.1
hypercnot truth-table --g 3.3 --kappa-s 0.1 --gamma 0.1
hypercnot truth-table --g 3.3 --kappa-s 0.1 --gamma 0.1 --mirror-override 0.9
hypercnot sweep --g-ratio 0:5:0.5 --ks-ratio 0,0.5,1 --n-targets 3
hypercnot run --control +,+ --target +,+ --format json --g 3.3 --kappa-s 0.1 --gamma 0.1 \
  --mirror-override 1e-9
# more targets than fit in memory: refused as invalid input (exit 2)
status=0
hypercnot verify --n-cases 1 --n-targets 1000000000 || status=$?
test "$status" -eq 2
# an unbalanced mirror is caught (exit 1)
status=0
hypercnot verify --n-cases 5 --seed 11 --mirror-override 0.9 || status=$?
test "$status" -eq 1
# so is a mirror far weaker than the block, on a batch of three-target cases
# (the spectral target path and per-point ledger tables, warnings as errors)
status=0
hypercnot verify --n-cases 20 --seed 2 --n-targets 3 --mirror-override 1e-6 || status=$?
test "$status" -eq 1
# a mirror with gain is refused as invalid input (exit 2), naming the scale
status=0
hypercnot run --control +,+ --target +,+ --g 3.3 --kappa-s 0.1 --gamma 0.1 \
  --mirror-override 1.5 2> mirror.err || status=$?
test "$status" -eq 2
grep -q "mirror_scale 1.5" mirror.err
# so is a mirror with gain on a batch of scan cases, single- and three-target
# (one fused guard over the mirror and passivity checks of each chunk)
status=0
hypercnot verify --n-cases 20 --seed 1 --mirror-override 1.5 2> mirror.err || status=$?
test "$status" -eq 2
grep -q "mirror_scale 1.5" mirror.err
status=0
hypercnot verify --n-cases 20 --seed 1 --n-targets 3 --mirror-override 1.5 2> mirror.err \
  || status=$?
test "$status" -eq 2
grep -q "mirror_scale 1.5" mirror.err
# undefined coefficients (g = gamma = 0 on resonance) give the row of zeros
hypercnot sweep --g-ratio 0,1 --ks-ratio 0 --gamma-ratio 0 > degenerate.csv
grep -qx "0.0,0.0,0.0,0.0,0.0,0.0" degenerate.csv
# one axis may hold as many points as a whole grid
hypercnot sweep --g-ratio 0:1:0.00001 --ks-ratio 0 --out /dev/null
# a grid of about 10^8 points would not fit in memory: refused (exit 2)
status=0
hypercnot sweep --g-ratio 0:5:0.0005001 --ks-ratio 0:1:0.0001001 || status=$?
test "$status" -eq 2
# 4000 basis targets: a success of about 1e-373 is all amplitude lost (exit 3)
status=0
hypercnot run --control L,2 $(printf -- '--target L,2 %.0s' $(seq 4000)) \
  --g 3.3 --kappa-s 0.1 --gamma 0.1 || status=$?
test "$status" -eq 3
# a params value that is a string, or a number past the float range, is refused (exit 2)
printf '{"params": {"g": "3.3"}}' > params-str.json
status=0
hypercnot run --control +,+ --target +,+ --params-file params-str.json || status=$?
test "$status" -eq 2
python -c "print('{\"params\": {\"g\": 1' + '0' * 400 + '}}')" > params-huge.json
status=0
hypercnot run --control +,+ --target +,+ --params-file params-huge.json || status=$?
test "$status" -eq 2
# cavity terms past the float range are degenerate (exit 3), one error line
status=0
hypercnot run --control +,+ --target +,+ --g 1 --gamma 1.7e308 --detuning-x 1.7e308 \
  2> overflow.err || status=$?
test "$status" -eq 3
test "$(grep -c '^error:' overflow.err)" -eq 1
test "$(wc -l < overflow.err)" -eq 1
# a photon coefficient whose square is past the float range is invalid input
# (exit 2), one error line
status=0
hypercnot run --control "pol=(1e200,0),(1e200,0);spat=1" --target +,+ \
  --g 3.3 --kappa-s 0.1 --gamma 0.1 2> photon.err || status=$?
test "$status" -eq 2
test "$(grep -c '^error:' photon.err)" -eq 1
test "$(wc -l < photon.err)" -eq 1
# a standard output that cannot be written is an I/O failure (exit 4)
status=0
hypercnot run --control +,+ --target +,+ --g 3.3 --kappa-s 0.1 --gamma 0.1 \
  > /dev/full || status=$?
test "$status" -eq 4
# the module entry's JSON arrives whole through a pipe, as the benchmark reads it
python -m hypercnot sample --control +,+ --target +,+ --shots 1000 --seed 1 --format json \
  --g 3.3 --kappa-s 0.1 --gamma 0.1 | python -c "import json,sys; json.load(sys.stdin)"
