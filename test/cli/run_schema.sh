#!/usr/bin/env bash
# Golden output of the schema front ends.  For every schema under
# samples/ and examples/ this records stdout, stderr and the exit code
# of
#
#   xsm check SCHEMA
#   xsm analyze SCHEMA
#   xsm validate SCHEMA DOC
#   xsm validate SCHEMA DOC --stream
#
# over a fixed set of documents: the three sample documents (each
# valid against one schema and mismatched against the others), a memo
# for the UPA fixture, and per sample document a two-error variant (an
# undeclared attribute on the root and an undeclared last child).  The
# transcript is compared with schema.expected, so a moved finding, a
# changed error text or a changed error order fails the test.
#
#   bash run_schema.sh XSM EXPECTED SAMPLES_DIR EXAMPLES_DIR
#
# With EXPECTED given as "-" the transcript is printed instead of
# checked (how schema.expected is made).
set -u
XSM="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
EXPECTED="$2"
SAMPLES="$3"
EXAMPLES="$4"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# copies under fixed names, so the transcript names no build directory
mkdir "$tmp/s"
for f in "$SAMPLES"/*.xsd "$EXAMPLES"/*.xsd; do cp "$f" "$tmp/s/"; done
for f in "$SAMPLES"/bookstore.xml "$SAMPLES"/library.xml "$EXAMPLES"/catalog.xml; do
  cp "$f" "$tmp/s/"
  base=$(basename "$f" .xml)
  # an undeclared attribute on the root, an undeclared last child
  awk 'BEGIN { done = 0 }
       !done && /^<[A-Za-z]/ { sub(/>$/, " bogus=\"1\">"); done = 1 }
       { lines[NR] = $0 }
       END { for (i = 1; i < NR; i++) print lines[i]; print "  <zzz/>"; print lines[NR] }' \
    "$f" > "$tmp/s/$base-two-errors.xml"
done
printf '<memo><header>h</header><note>n</note></memo>\n' > "$tmp/s/memo.xml"

run() {
  echo "\$ xsm $*"
  (cd "$tmp/s" && "$XSM" "$@" > "$tmp/out" 2> "$tmp/err")
  echo "exit $?"
  sed 's/^/stdout: /' "$tmp/out"
  sed 's/^/stderr: /' "$tmp/err"
}

transcript() {
  for schema in $(cd "$tmp/s" && ls *.xsd); do
    run check "$schema"
    run analyze "$schema"
    for doc in $(cd "$tmp/s" && ls *.xml); do
      run validate "$schema" "$doc"
      run validate "$schema" "$doc" --stream
    done
  done
}

if [ "$EXPECTED" = "-" ]; then
  transcript
else
  transcript > "$tmp/actual"
  if ! diff -u "$EXPECTED" "$tmp/actual"; then
    echo "FAIL: schema front-end output differs from schema.expected" >&2
    exit 1
  fi
  echo "cli schema tests passed"
fi
