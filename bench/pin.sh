# Sweep output pin, run by `dune runtest` in the build copy of bench/.
# optgap and chaos must print and write, at --jobs 1 and 2, what
# expected/ holds (the JSON's provenance line stripped), and a --max-n
# below every cluster count a sweep runs must be refused with exit 2.
set -u
fail() {
  echo "bench pin: $*" >&2
  exit 1
}
pin() {
  name=$1
  shift
  for jobs in 1 2; do
    ./$name.exe "$@" --jobs $jobs -o $name.json > $name.stdout ||
      fail "$name --jobs $jobs exited $?"
    diff expected/$name.stdout $name.stdout ||
      fail "$name --jobs $jobs: stdout differs from expected/$name.stdout"
    grep -v '"git_commit"' $name.json | diff expected/$name.json - ||
      fail "$name --jobs $jobs: JSON differs from expected/$name.json"
  done
}
pin optgap --reps 1 --max-n 4
pin chaos --duration 1000000
status=0
./faults.exe --max-n 4 -o faults.json 2> faults.err || status=$?
[ "$status" -eq 2 ] || fail "faults --max-n 4 exited $status, not 2"
grep -q "option '--max-n'" faults.err || fail "faults --max-n 4 did not name --max-n"
