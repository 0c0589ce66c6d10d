package serve

import (
	"encoding/json"
	"reflect"
	"testing"

	"pgpub/internal/dataset"
)

// FuzzParseQuery feeds arbitrary /v1/query bodies through the decoder a
// server and a coordinator share: never panic; every accepted query must
// lie inside the schema's domains; and the body a coordinator forwards to
// its shards (appendQuery) must parse back to the same canonical key, or
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
	} {
		f.Add([]byte(seed))
	}
	schema := dataset.Hospital().Schema
	f.Fuzz(func(t *testing.T, body []byte) {
		var req QueryRequest
		if json.Unmarshal(body, &req) != nil {
			return
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

		wire := appendQuery(nil, schema, op, q, values)
		var fwd QueryRequest
		if err := json.Unmarshal(wire, &fwd); err != nil {
			t.Fatalf("forwarded body %s does not decode: %v", wire, err)
		}
		op2, q2, values2, err := parseQuery(schema, &fwd)
		if err != nil {
			t.Fatalf("forwarded body %s rejected: %v", wire, err)
		}
		if got := QueryKey(schema, op2, q2, values2); got != key {
			t.Fatalf("forwarded body %s keys %q, the client's query keys %q", wire, got, key)
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
