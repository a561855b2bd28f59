#!/usr/bin/env bash
# Cost-based planning surface: `xsm analyze --cost` prices a query from
# the schema alone, `xsm query --index --explain` reports the chosen
# route with estimated vs. actual rows.  All assertions parse the JSON
# payloads with jq — the prose lines are presentation, not contract.
# Also: the schema gate of every --schema command, and query --schema
# refusing a document its schema does not validate.
#
#   bash run_plan.sh XSM LIBRARY_XML LIBRARY_XSD CATALOG_XSD
set -u

XSM="$1"
LIBRARY_XML="$2"
LIBRARY_XSD="$3"
CATALOG_XSD="$4"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail() { echo "run_plan.sh: $1" >&2; exit 1; }

cat > "$tmp/doc.xml" <<'EOF'
<shop>
  <item><name>apple</name><price>3</price></item>
  <item><name>brick</name><price>7</price></item>
  <item><name>chalk</name><price>7</price></item>
</shop>
EOF

cat > "$tmp/shop.xsd" <<'EOF'
<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:complexType name="Item">
    <xsd:sequence>
      <xsd:element name="name" type="xs:string"/>
      <xsd:element name="price" type="xs:nonNegativeInteger"/>
    </xsd:sequence>
  </xsd:complexType>
  <xsd:element name="shop">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="item" type="Item" minOccurs="0" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
EOF

# sequence (header, (note?), (note)) is UPA-ambiguous
cat > "$tmp/ambiguous.xsd" <<'EOF'
<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="memo">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="header" type="xs:string"/>
        <xsd:sequence>
          <xsd:element name="note" type="xs:string" minOccurs="0"/>
        </xsd:sequence>
        <xsd:sequence>
          <xsd:element name="note" type="xs:token"/>
        </xsd:sequence>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
EOF

# --- query --explain: structural path, exact estimate, index route
"$XSM" query "$tmp/doc.xml" '/shop/item/name' --index --explain > "$tmp/e1.json" 2>/dev/null \
  || fail "explain failed"
[ "$(wc -l < "$tmp/e1.json")" -eq 1 ] || fail "--explain stdout must be one JSON line"
jq -e '.route == "index" and .actual_rows == 3 and .in_interval == true and .abs_error == 0' \
  "$tmp/e1.json" >/dev/null || fail "structural explain: exact estimate expected"
jq -e '.maintenance.epochs == 1' "$tmp/e1.json" >/dev/null \
  || fail "explain must embed maintenance stats"

# --- value predicate: a strategy decision is recorded with both prices
"$XSM" query "$tmp/doc.xml" '/shop/item[price="7"]/name' --index --explain > "$tmp/e2.json" 2>/dev/null \
  || fail "value-predicate explain failed"
jq -e '.route == "index" and .actual_rows == 2 and .in_interval == true' "$tmp/e2.json" >/dev/null \
  || fail "value-predicate explain: wrong route or rows"
jq -e '.decisions | length >= 1' "$tmp/e2.json" >/dev/null \
  || fail "cost policy must record a strategy decision"
jq -e '.decisions[0] | (.chosen == "probe" or .chosen == "residual")
        and .indexed_cost >= 0 and .residual_cost >= 0' "$tmp/e2.json" >/dev/null \
  || fail "decision must carry both candidate prices"

# --- positional predicates route to the fallback evaluator
"$XSM" query "$tmp/doc.xml" '/shop/item[last()-1]/name' --index --explain > "$tmp/e3.json" 2>/dev/null \
  || fail "positional explain failed"
jq -e '.route == "fallback" and .actual_rows == 1' "$tmp/e3.json" >/dev/null \
  || fail "positional query must fall back (with its actual count)"
"$XSM" query "$tmp/doc.xml" '/shop/item[last()-1]/name' --index 2>/dev/null | grep -q brick \
  || fail "last()-1 must select the middle item"

# --- schema folding: the always-true comparison disappears from the plan
"$XSM" query "$tmp/doc.xml" '/shop/item[price>=0]/name' --index --schema "$tmp/shop.xsd" --explain \
  > "$tmp/e4.json" 2>/dev/null || fail "folding explain failed"
jq -e '.rewritten == "/shop/item/name" and .actual_rows == 3 and (.decisions | length == 0)' \
  "$tmp/e4.json" >/dev/null || fail "always-true predicate must fold away"

# --- schema pruning still reports through the JSON surface
"$XSM" query "$tmp/doc.xml" '/shop/basket' --index --schema "$tmp/shop.xsd" --explain \
  > "$tmp/e5.json" 2>/dev/null || fail "pruned explain failed"
jq -e '.route == "pruned" and .actual_rows == 0' "$tmp/e5.json" >/dev/null \
  || fail "statically empty query must report the pruned route"

# --- analyze --cost: schema-only pricing, one JSON object on stdout
"$XSM" analyze "$tmp/shop.xsd" --query '/shop/item[price="7"]/name' --cost > "$tmp/a1.json" 2>/dev/null \
  || fail "analyze --cost failed"
[ "$(wc -l < "$tmp/a1.json")" -eq 1 ] || fail "--cost stdout must be one JSON line"
jq -e '.supported == true and .rows.lo == 0 and .eval_cost > 0' "$tmp/a1.json" >/dev/null \
  || fail "analyze --cost: wrong shape"
jq -e '.estimate.steps | length == 3' "$tmp/a1.json" >/dev/null \
  || fail "analyze --cost must annotate every step"

# --cost requires --query
"$XSM" analyze "$tmp/shop.xsd" --cost >/dev/null 2>&1 && fail "--cost without --query must fail"

# a broken schema still exits 2, --cost or not
"$XSM" analyze "$tmp/ambiguous.xsd" --query '/memo/note' --cost >/dev/null 2>&1
[ $? -eq 2 ] || fail "ambiguous schema must exit 2 under --cost"

# --- every command that relies on a schema goes through the gate of
#     `xsm validate`: same finding lines, exit 2
"$XSM" validate "$tmp/ambiguous.xsd" "$tmp/doc.xml" > /dev/null 2> "$tmp/gate.expected"
[ $? -eq 2 ] || fail "validate must refuse the ambiguous schema with exit 2"
printf 'query /shop\n' > "$tmp/script.upd"
for cmd in "query $tmp/doc.xml /shop/item" "query $tmp/doc.xml /shop/item --index" \
           "stats $tmp/doc.xml $tmp/script.upd" "snapshot $tmp/doc.xml $tmp/gate.snap" \
           "load $tmp/doc.xml"; do
  # shellcheck disable=SC2086
  "$XSM" $cmd --schema "$tmp/ambiguous.xsd" > /dev/null 2> "$tmp/gate.err"
  [ $? -eq 2 ] || fail "$cmd --schema: an ambiguous schema must exit 2"
  cmp -s "$tmp/gate.expected" "$tmp/gate.err" \
    || fail "$cmd --schema must print the gate's finding lines (got: $(cat "$tmp/gate.err"))"
done

# --- query --schema checks the validity its pruning and folding
#     assume: a document of another schema is refused with the
#     validator's lines (exit 1), never answered "pruned"
"$XSM" query "$LIBRARY_XML" /library/book/title --schema "$CATALOG_XSD" \
  > "$tmp/q.out" 2> "$tmp/q.err"
[ $? -eq 1 ] || fail "query --schema over an invalid document must exit 1"
[ -s "$tmp/q.out" ] && fail "an invalid document must print no rows"
grep -q 'pruned' "$tmp/q.err" && fail "an invalid document must not be pruned"
grep -q '^/catalog: element library where catalog was declared$' "$tmp/q.err" \
  || fail "query --schema must print the validator's lines (got: $(cat "$tmp/q.err"))"
"$XSM" query "$LIBRARY_XML" /library/book/title --schema "$LIBRARY_XSD" > "$tmp/q.out" \
  || fail "query --schema over a valid document failed"
[ "$(wc -l < "$tmp/q.out")" -eq 2 ] || fail "query --schema over a valid document: two titles"

# --- query --index evaluates once: the plan line comes from the one
#     evaluation, the same text `explain` prints, and over a paged
#     storage the block lists are read once (a second evaluation for
#     the plan line made 8 pager accesses where the query needs 6)
"$XSM" query --storage --index --page-file "$tmp/lib.pages" --pool-capacity 2 "$LIBRARY_XML" //title \
  > /dev/null 2> "$tmp/once.err" || fail "paged indexed query failed"
"$XSM" query --storage --index --explain --page-file "$tmp/lib.pages" --pool-capacity 2 \
  "$LIBRARY_XML" //title > /dev/null 2> "$tmp/explain.err" || fail "paged explain failed"
plan=$(grep '^plan: ' "$tmp/once.err")
[ "$plan" = "plan: index(4 nodes; est [4,4]~4.0; 21 paths over 54 nodes; 0 value indexes; epoch 1)" ] \
  || fail "paged indexed query: unexpected plan line ($plan)"
[ "$plan" = "$(grep '^plan: ' "$tmp/explain.err")" ] \
  || fail "the plan line of the evaluation must be the one explain prints"
accesses=$(sed -n 's/^pager: \([0-9]*\) accesses.*/\1/p' "$tmp/once.err")
[ -n "$accesses" ] && [ "$accesses" -lt 8 ] \
  || fail "paged indexed query: $accesses pager accesses, the query is evaluated twice"

echo "cli plan tests passed"
