package serve

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/query"
)

// FuzzParseQuery feeds arbitrary /v1/query bodies through the decoder a
// server and a coordinator share: never panic; every accepted query must
// lie inside the schema's domains; and the shard-codec body a coordinator
// forwards to its shards must decode to the same canonical key, or
// merged answers and DP noise would be keyed on a different query than
// the client asked.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"op":"naive"}`,
		`{"where":[{"attr":"Age","lo":"30","hi":"50"}],"sensitive":[0,2]}`,
		`{"where":[{"dim":0,"lo":1,"hi":3},{"dim":2,"lo":"12000"}]}`,
		`{"op":"sum","values":[1,2.5,-3,1e300]}`,
		`{"op":"avg","where":[{"attr":"Zipcode","hi":0}],"sensitive":[]}`,
		`{"where":[{"dim":0,"lo":5,"hi":2}]}`,
		`{"where":[{"dim":-1}]}`,
		`{"where":[{"dim":0,"lo":2147483648}]}`,
		`{"where":[{"attr":"Age","dim":0}]}`,
		`{"where":[{"dim":0,"lo":[1],"hi":{"x":1}}]}`,
		`{"sensitive":[-1,99]}`,
		`{"op":"count","values":[1]}`,
		`{"shard":1}`,
		`{"where":[{"dim":0,"lo":-0,"hi":1e0},{"dim":1,"lo":-1,"hi":"-1"}]}`,
	} {
		f.Add([]byte(seed))
	}
	schema := dataset.Hospital().Schema
	f.Fuzz(func(t *testing.T, body []byte) {
		var req QueryRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		for _, c := range req.Where {
			for _, raw := range []json.RawMessage{c.Lo, c.Hi} {
				if err := sameBound(schema.QI[0], raw); err != nil {
					t.Fatal(err)
				}
			}
		}
		op, q, values, err := parseQuery(schema, &req)
		if err != nil {
			return
		}
		for j, r := range q.QI {
			if r.Lo < 0 || r.Lo > r.Hi || int(r.Hi) >= schema.QI[j].Size() {
				t.Fatalf("accepted range %+v outside dim %d's domain", r, j)
			}
		}
		if q.Sensitive != nil && len(q.Sensitive) != schema.SensitiveDomain() {
			t.Fatalf("mask of %d codes for a domain of %d", len(q.Sensitive), schema.SensitiveDomain())
		}
		key := QueryKey(schema, op, q, values)

		wire := appendShardQuery(nil, schema, op, q, values)
		op2, q2, values2, err := decodeShardQuery(schema, wire)
		if err != nil {
			t.Fatalf("forwarded body %x rejected: %v", wire, err)
		}
		if got := QueryKey(schema, op2, q2, values2); got != key {
			t.Fatalf("forwarded body %x keys %q, the client's query keys %q", wire, got, key)
		}
	})
}

// FuzzShardQuery feeds arbitrary shard-codec bodies — input a shard server
// takes from whoever reaches its port — through the codec's decoder: never
// panic; every accepted query must lie inside the schema's domains; and
// encoding the decoded query must decode again to the same canonical key.
func FuzzShardQuery(f *testing.F) {
	schema := dataset.Hospital().Schema
	_, full, _ := newQuery(schema, "count")
	_, q, _ := newQuery(schema, "count")
	q.QI[0] = query.Range{Lo: 1, Hi: 3}
	q.QI[2] = query.Range{Lo: 0, Hi: 0}
	masked := q
	masked.Sensitive = make([]bool, schema.SensitiveDomain())
	masked.Sensitive[1] = true
	values := make([]float64, schema.SensitiveDomain())
	for i := range values {
		values[i] = float64(i) * 1.5
	}
	for _, seed := range [][]byte{
		appendShardQuery(nil, schema, "count", full, nil),
		appendShardQuery(nil, schema, "naive", q, nil),
		appendShardQuery(nil, schema, "count", masked, nil),
		appendShardQuery(nil, schema, "sum", masked, values),
		appendShardQuery(nil, schema, "avg", q, values),
		{},
		{4, 0, 0, 0},
		{0, 1, 9, 0, 0, 0, 0},
		{0, 1, 0, 3, 1, 0, 0},
		{0, 0, 2, 1, 0},
		{0, 0, 0, 2},
		{0, 0, 1, 0, 0xff},
		{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		op, q, values, err := decodeShardQuery(schema, body)
		if err != nil {
			return
		}
		for j, r := range q.QI {
			if r.Lo < 0 || r.Lo > r.Hi || int(r.Hi) >= schema.QI[j].Size() {
				t.Fatalf("accepted range %+v outside dim %d's domain", r, j)
			}
		}
		if q.Sensitive != nil && len(q.Sensitive) != schema.SensitiveDomain() {
			t.Fatalf("mask of %d codes for a domain of %d", len(q.Sensitive), schema.SensitiveDomain())
		}
		if values != nil && (op != "sum" && op != "avg" || len(values) != schema.SensitiveDomain()) {
			t.Fatalf("accepted %d values for op %q", len(values), op)
		}
		key := QueryKey(schema, op, q, values)
		wire := appendShardQuery(nil, schema, op, q, values)
		op2, q2, values2, err := decodeShardQuery(schema, wire)
		if err != nil {
			t.Fatalf("re-encoded body %x rejected: %v", wire, err)
		}
		if got := QueryKey(schema, op2, q2, values2); got != key {
			t.Fatalf("re-encoded body %x keys %q, the decoded query keys %q", wire, got, key)
		}
	})
}

// FuzzSchemaInfo feeds arbitrary /v1/metadata schema blocks — input a
// shard controls — through the coordinator's decoder: never panic, and
// every accepted block must describe exactly the schema it decodes to.
func FuzzSchemaInfo(f *testing.F) {
	for _, s := range []*dataset.Schema{dataset.Hospital().Schema} {
		b, err := json.Marshal(schemaInfo(s))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, seed := range []string{
		`{}`,
		`{"qi":[],"sensitive":{"name":"S","kind":"discrete","labels":["a"]}}`,
		`{"qi":[{"name":"A","kind":"continuous","labels":["1","2"]}],"sensitive":{"name":"S","kind":"discrete","labels":["a","b"]}}`,
		`{"qi":[{"name":"A","kind":"ordinal","labels":["1"]}],"sensitive":{"name":"S","kind":"discrete","labels":["a"]}}`,
		`{"qi":[{"name":"A","kind":"discrete","labels":["x","x"]}],"sensitive":{"name":"S","kind":"discrete","labels":["a"]}}`,
		`{"qi":[{"name":"A","kind":"discrete","labels":[""]}],"sensitive":{"name":"A","kind":"discrete","labels":["a"]}}`,
		`{"qi":[{"name":"","kind":"discrete","labels":null}],"sensitive":null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		var si SchemaInfo
		if json.Unmarshal(block, &si) != nil {
			return
		}
		s, err := si.schema()
		if err != nil {
			return
		}
		if got := schemaInfo(s); !reflect.DeepEqual(got, &si) {
			t.Fatalf("block %s decoded to a schema that re-encodes as %+v", block, got)
		}
	})
}

// refResolveBound is resolveBound before numeric bounds skipped the label
// decode: every bound is tried as a string first. Kept as the reference the
// fast path must agree with.
func refResolveBound(a *dataset.Attribute, raw json.RawMessage, def int32) (int32, error) {
	if len(raw) == 0 {
		return def, nil
	}
	var label string
	if err := json.Unmarshal(raw, &label); err == nil {
		return a.Code(label)
	}
	var code int32
	if err := json.Unmarshal(raw, &code); err != nil {
		return 0, fmt.Errorf("bound %s is neither a label nor a code", raw)
	}
	if !a.Valid(code) {
		return 0, fmt.Errorf("code %d outside the %q domain [0,%d]", code, a.Name, a.Size()-1)
	}
	return code, nil
}

// sameBound reports whether resolveBound and the reference agree on raw:
// equal codes, or equal error messages.
func sameBound(a *dataset.Attribute, raw json.RawMessage) error {
	got, gerr := resolveBound(a, raw, -7)
	want, werr := refResolveBound(a, raw, -7)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) || got != want {
		return fmt.Errorf("bound %q on %s: got (%d, %v), reference (%d, %v)", raw, a.Name, got, gerr, want, werr)
	}
	return nil
}

// TestResolveBoundMatchesReference pins the numeric fast path: numbers,
// labels (including labels that look like numbers), null, malformed values
// and leading whitespace all resolve exactly as before, and a numeric bound
// allocates less than the string-first decode did.
func TestResolveBoundMatchesReference(t *testing.T) {
	schema := dataset.Hospital().Schema
	raws := []string{
		``, `0`, `1`, `5`, `-0`, `-1`, `99`, `2147483647`, `2147483648`, `-2147483649`,
		`1.5`, `1e2`, `1E0`, `-`, `01`, ` 3`, `3 `, `null`, `true`, `[1]`, `{"x":1}`,
		`""`, `"x"`, `"1"`, `"-1"`, `"30"`, `" 30"`,
	}
	for _, a := range schema.QI {
		for i := 0; i < min(a.Size(), 3); i++ {
			raws = append(raws, fmt.Sprintf("%q", a.Label(int32(i))))
		}
		for _, raw := range raws {
			if err := sameBound(a, json.RawMessage(raw)); err != nil {
				t.Error(err)
			}
		}
	}
	a := schema.QI[0]
	num := json.RawMessage(`1`)
	fast := testing.AllocsPerRun(100, func() { resolveBound(a, num, 0) })
	slow := testing.AllocsPerRun(100, func() { refResolveBound(a, num, 0) })
	if fast >= slow {
		t.Fatalf("numeric bound: %v allocs, the string-first decode %v", fast, slow)
	}
}
