#!/usr/bin/env bash
# End-to-end streaming-ingest checks through the xsm binary: stdin
# validation ("-"), tree/stream verdict and error-list agreement,
# streaming error positions, bulk load round-trip with --stats/--print,
# load-time WAL + snapshot with crash injection (exit 3) and prefix
# recovery, and the differential index feed during a load.
set -u
XSM="$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() { echo "FAIL: $1" >&2; exit 1; }

cat > "$tmp/schema.xsd" <<'EOF'
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="title" type="xs:string"/>
              <xs:element name="year" type="xs:integer"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>
EOF

cat > "$tmp/doc.xml" <<'EOF'
<library><book><title>One</title><year>2001</year></book><book><title>Two</title><year>2002</year></book></library>
EOF

cat > "$tmp/bad.xml" <<'EOF'
<library><book><title>One</title><year>notayear</year></book></library>
EOF

# --- validate: tree and stream agree on the verdict, stdin works
"$XSM" validate "$tmp/schema.xsd" "$tmp/doc.xml" >/dev/null 2>&1 \
  || fail "tree validate rejected a valid document"
"$XSM" validate "$tmp/schema.xsd" "$tmp/doc.xml" --stream >/dev/null 2>&1 \
  || fail "stream validate rejected a valid document"
"$XSM" validate "$tmp/schema.xsd" - < "$tmp/doc.xml" >/dev/null 2>&1 \
  || fail "stdin tree validate failed"
"$XSM" validate "$tmp/schema.xsd" - --stream < "$tmp/doc.xml" >/dev/null 2>&1 \
  || fail "stdin stream validate failed"

out=$("$XSM" validate "$tmp/schema.xsd" - --stream < "$tmp/bad.xml" 2>&1)
[ $? -eq 1 ] || fail "stream validate must exit 1 on an invalid document"
echo "$out" | grep -q "line 1," || fail "streaming diagnostic must carry a position (got: $out)"
echo "$out" | grep -q "/library/book\[1\]/year\[2\]" || fail "streaming diagnostic must carry the tree path (got: $out)"

# --- tree and stream print the same errors in the same order
printf '<library><book><title>One</title><year>x</year></book><book><year>2</year><title>T</title></book></library>\n' \
  > "$tmp/two.xml"
for f in bad.xml two.xml; do
  tree_out=$("$XSM" validate "$tmp/schema.xsd" "$tmp/$f" 2>/dev/null)
  stream_out=$("$XSM" validate "$tmp/schema.xsd" "$tmp/$f" --stream 2>/dev/null \
    | sed 's/^line [0-9]*, column [0-9]*: //')
  [ -n "$tree_out" ] && [ "$tree_out" = "$stream_out" ] \
    || fail "tree and stream errors differ on $f (tree: $tree_out; stream: $stream_out)"
done
[ "$(echo "$stream_out" | wc -l)" -eq 2 ] || fail "two-error document must report two errors (got: $stream_out)"

printf '<library><book><title>x' | "$XSM" validate "$tmp/schema.xsd" - --stream >/dev/null 2>&1
[ $? -eq 2 ] || fail "malformed stdin must exit 2"

# --- load: round-trip, integrity, stats
"$XSM" load "$tmp/doc.xml" --stats --print > "$tmp/load.out" 2>&1 \
  || fail "load failed"
grep -q "integrity ok" "$tmp/load.out" || fail "load --stats must report integrity"
grep -q "<title>One</title>" "$tmp/load.out" || fail "load --print must serialize the document"
"$XSM" load - --schema "$tmp/schema.xsd" < "$tmp/doc.xml" >/dev/null 2>&1 \
  || fail "stdin load with schema failed"

# --- block and pool capacities below 2 are refused at parse time (124)
for c in 0 1; do
  "$XSM" load "$tmp/doc.xml" --block-capacity "$c" >/dev/null 2>&1
  [ $? -eq 124 ] || fail "load --block-capacity $c must be refused with exit 124"
  "$XSM" load "$tmp/doc.xml" --page-file "$tmp/cap.pages" --pool-capacity "$c" >/dev/null 2>&1
  [ $? -eq 124 ] || fail "load --pool-capacity $c must be refused with exit 124"
  "$XSM" query "$tmp/doc.xml" /library --page-file "$tmp/cap.pages" --pool-capacity "$c" \
    >/dev/null 2>&1
  [ $? -eq 124 ] || fail "query --pool-capacity $c must be refused with exit 124"
done
"$XSM" load "$tmp/doc.xml" --block-capacity 2 --page-file "$tmp/cap.pages" --pool-capacity 2 \
  --stats > "$tmp/cap.out" 2>&1 || fail "capacity 2 must load"
grep -q "integrity ok" "$tmp/cap.out" || fail "capacity 2 load must keep integrity"

# --- load with WAL + snapshot: clean run recovers to the same state
"$XSM" load "$tmp/doc.xml" --wal "$tmp/w.wal" --snapshot "$tmp/s.snap" --print > "$tmp/direct.xml" 2>/dev/null \
  || fail "logged load failed"
"$XSM" recover "$tmp/s.snap" --wal "$tmp/w.wal" --print > "$tmp/rec.xml" 2>/dev/null \
  || fail "recover after load failed"
cmp -s "$tmp/direct.xml" "$tmp/rec.xml" || fail "recovered state differs from the loaded document"

# --- injected crash after 1 record: exit 3, recovery yields root + first book
"$XSM" load "$tmp/doc.xml" --wal "$tmp/wc.wal" --snapshot "$tmp/sc.snap" --crash-after 1 >/dev/null 2>&1
[ $? -eq 3 ] || fail "injected crash during load must exit 3"
"$XSM" recover "$tmp/sc.snap" --wal "$tmp/wc.wal" --print > "$tmp/crash_rec.xml" 2>/dev/null \
  || fail "recovery after load crash failed"
grep -q "<title>One</title>" "$tmp/crash_rec.xml" || fail "first subtree must survive the crash"
grep -q "<title>Two</title>" "$tmp/crash_rec.xml" && fail "unlogged subtree must not survive the crash"

# --- differential index feed during the load
"$XSM" load "$tmp/doc.xml" --index --query /library/book/title > "$tmp/idx.out" 2> "$tmp/idx.err" \
  || fail "indexed load failed"
grep -q "One" "$tmp/idx.out" || fail "query over the loaded index must answer"
grep '^{"maintenance"' "$tmp/idx.err" | jq -e '.maintenance.applied >= 1' >/dev/null \
  || fail "planner must report differential maintenance"

echo "cli stream tests passed"
