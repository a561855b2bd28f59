#!/usr/bin/env bash
# The on-disk formats are a contract: a bulk load must write the same
# page file, WAL and snapshot bytes (and print the same stdout) for the
# same input.  Each document is loaded with
#
#   xsm load DOC --page-file P --pool-capacity 8 --wal W --snapshot S
#
# and the sha256 of P, W, S and stdout is compared against
# bytes.expected.  The documents: samples/library.xml,
# examples/catalog.xml and a generated 3000-record document with CRLF
# line ends, entity and character references, CDATA, comments and
# processing instructions inside text, and both attribute quote styles.
# The small pool makes the load evict and write back as it goes.
#
#   bash run_bytes.sh XSM EXPECTED LIBRARY_XML CATALOG_XML
#
# With EXPECTED given as "-" the hashes are printed instead of checked
# (how bytes.expected is made; a deliberate format change regenerates
# it in the same commit).
set -u
XSM="$1"
EXPECTED="$2"
LIBRARY="$3"
CATALOG="$4"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() { echo "FAIL: $1" >&2; exit 1; }

cat > "$tmp/gen.awk" <<'EOF'
BEGIN {
  q = "\047"
  printf "<?xml version=\"1.0\"?>\r\n<!-- generated -->\r\n<library>\r\n"
  for (i = 1; i <= 3000; i++) {
    if (i % 2) printf "<book id=\"b%d\" lang=%sen%s>\r\n", i, q, q
    else printf "<book id=%sb%d%s lang=\"fr\">\r\n", q, i, q
    printf "  <title>Title %d &amp; co &#x41;&#66; &lt;%d&gt; &quot;q&quot; &apos;a&apos;</title>\r\n", i, i % 7
    printf "  <note>before<!-- c%d -->after<?pi data %d?>tail<![CDATA[<raw> & %d]]>end\r\n  line two</note>\r\n", i, i, i
    if (i % 3 == 0) printf "  <author>Author %d</author>\r\n  <author>Second %d</author>\r\n", i % 97, i
    printf "  <year>%d</year>\r\n</book>\r\n", 1950 + i % 70
  }
  printf "</library>\r\n"
}
EOF
awk -f "$tmp/gen.awk" > "$tmp/generated.xml" || fail "could not generate the document"

actual=$(
  for doc in "$LIBRARY" "$CATALOG" "$tmp/generated.xml"; do
    name=$(basename "$doc")
    d="$tmp/$name.d"
    mkdir "$d"
    "$XSM" load "$doc" --page-file "$d/p" --pool-capacity 8 --wal "$d/w" --snapshot "$d/s" \
      > "$d/out" 2> "$d/err" || fail "load $name exited $?: $(cat "$d/err")"
    for f in p w s out; do
      echo "$name $f $(sha256sum < "$d/$f" | cut -d' ' -f1)"
    done
  done
) || exit 1

if [ "$EXPECTED" = "-" ]; then
  printf '%s\n' "$actual"
  exit 0
fi
diff <(printf '%s\n' "$actual") "$EXPECTED" >&2 \
  || fail "load wrote different bytes than bytes.expected (< actual, > expected)"

echo "cli bytes: $(printf '%s\n' "$actual" | wc -l) hashes match"
