package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"pgpub/internal/dataset"
	"pgpub/internal/query"
)

// This file is the shard codec: the compact binary form a coordinator and
// its shard servers exchange queries and batches in, as the bodies of the
// frames of a shard stream (stream.go). It is internal to a sharded
// deployment — clients speak JSON, and a shard server reads the codec only
// off a shard stream.
//
// A query is:
//
//	op      one byte, an index into shardOps
//	ranges  uvarint n, then n (dim, lo, hi) uvarint triples — the
//	        restricting dimensions only; every other one spans its domain
//	mask    uvarint m: 0 for no sensitive mask, else the m-1 qualifying
//	        sensitive codes as uvarints
//	values  uvarint v: 0 for no value vector, else v-1 float64s, each as
//	        its IEEE-754 bits, 8 bytes little-endian
//
// A batch is a uvarint query count followed by that many queries. A reply to
// a query is its estimate — plus the (sum, weight) compose pair for sum and
// avg — and a reply to a batch its n estimates, each 8 bytes of float64
// bits, little-endian. Failures are not encoded here: a shard answers them
// with its JSON errorResponse and HTTP status, as it does every client.

// shardOps maps the codec's op byte to the op name.
var shardOps = [...]string{"count", "naive", "sum", "avg"}

// shardOpByte is the codec byte of a validated op.
func shardOpByte(op string) byte {
	for i, o := range shardOps {
		if o == op {
			return byte(i)
		}
	}
	panic("serve: shard codec: unknown op " + strconv.Quote(op))
}

// appendShardQuery appends q in the codec form. Like QueryKey it drops
// full-domain dimensions, so the shard rebuilds exactly q.
func appendShardQuery(b []byte, schema *dataset.Schema, op string, q query.CountQuery, values []float64) []byte {
	b = append(b, shardOpByte(op))
	n := 0
	for j, r := range q.QI {
		if !fullRange(schema, j, r) {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for j, r := range q.QI {
		if !fullRange(schema, j, r) {
			b = binary.AppendUvarint(b, uint64(j))
			b = binary.AppendUvarint(b, uint64(r.Lo))
			b = binary.AppendUvarint(b, uint64(r.Hi))
		}
	}
	if q.Sensitive == nil {
		b = append(b, 0)
	} else {
		m := 0
		for _, in := range q.Sensitive {
			if in {
				m++
			}
		}
		b = binary.AppendUvarint(b, uint64(m)+1)
		for code, in := range q.Sensitive {
			if in {
				b = binary.AppendUvarint(b, uint64(code))
			}
		}
	}
	if values == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(values))+1)
	for _, v := range values {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// appendShardBatch appends a COUNT workload in the codec form.
func appendShardBatch(b []byte, schema *dataset.Schema, qs []query.CountQuery) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = appendShardQuery(b, schema, "count", q, nil)
	}
	return b
}

func fullRange(schema *dataset.Schema, j int, r query.Range) bool {
	return r.Lo == 0 && int(r.Hi) == schema.QI[j].Size()-1
}

// shardReader decodes codec requests. Every count it reads is checked
// against the bytes left before anything is allocated for it, so a hostile
// body cannot make the decoder allocate more than a few times its length.
type shardReader struct{ b []byte }

var errShardShort = errors.New("shard codec: truncated body")

func (r *shardReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errShardShort
	}
	r.b = r.b[n:]
	return v, nil
}

// count reads a count of items at least size bytes long each.
func (r *shardReader) count(size int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)/size) {
		return 0, errShardShort
	}
	return int(v), nil
}

// code reads a dimension index or a domain code.
func (r *shardReader) code() (int32, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("shard codec: code %d overflows int32", v)
	}
	return int32(v), nil
}

// optional reads a 0-or-count+1 prefix: present is false for 0.
func (r *shardReader) optional(size int) (n int, present bool, err error) {
	v, err := r.uvarint()
	if err != nil || v == 0 {
		return 0, false, err
	}
	if v-1 > uint64(len(r.b)/size) {
		return 0, false, errShardShort
	}
	return int(v - 1), true, nil
}

// query decodes one query and validates it with the rules parseQuery
// applies to a JSON query (newQuery, qiAttr, narrow, finishQuery).
func (r *shardReader) query(schema *dataset.Schema) (op string, q query.CountQuery, values []float64, err error) {
	if len(r.b) == 0 {
		return "", q, nil, errShardShort
	}
	if int(r.b[0]) >= len(shardOps) {
		return "", q, nil, fmt.Errorf("unknown op byte %d", r.b[0])
	}
	op, r.b = shardOps[r.b[0]], r.b[1:]
	if op, q, err = newQuery(schema, op); err != nil {
		return "", q, nil, err
	}
	n, err := r.count(3)
	if err != nil {
		return "", q, nil, err
	}
	for i := 0; i < n; i++ {
		var dim, lo, hi int32
		if dim, err = r.code(); err == nil {
			if lo, err = r.code(); err == nil {
				hi, err = r.code()
			}
		}
		if err != nil {
			return "", q, nil, err
		}
		a, err := qiAttr(schema, int(dim))
		if err != nil {
			return "", q, nil, err
		}
		if err := narrow(&q, a, int(dim), lo, hi); err != nil {
			return "", q, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	var sensitive []int32
	m, present, err := r.optional(1)
	if err != nil {
		return "", q, nil, err
	}
	if present {
		sensitive = make([]int32, m)
		for i := range sensitive {
			if sensitive[i], err = r.code(); err != nil {
				return "", q, nil, err
			}
		}
	}
	v, present, err := r.optional(8)
	if err != nil {
		return "", q, nil, err
	}
	if present {
		values = make([]float64, v)
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
			r.b = r.b[8:]
		}
	}
	return finishQuery(schema, op, q, sensitive, values)
}

// end reports trailing bytes after the last query as an error.
func (r *shardReader) end() error {
	if len(r.b) != 0 {
		return fmt.Errorf("shard codec: %d trailing bytes", len(r.b))
	}
	return nil
}

// decodeShardQuery decodes and validates a codec query body.
func decodeShardQuery(schema *dataset.Schema, body []byte) (op string, q query.CountQuery, values []float64, err error) {
	r := shardReader{body}
	if op, q, values, err = r.query(schema); err == nil {
		err = r.end()
	}
	return op, q, values, err
}

// decodeShardBatch decodes and validates a codec batch body: a COUNT
// workload.
func decodeShardBatch(schema *dataset.Schema, body []byte) ([]query.CountQuery, error) {
	r := shardReader{body}
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	qs := make([]query.CountQuery, n)
	for i := range qs {
		op, q, _, err := r.query(schema)
		if err == nil && op != "count" {
			err = fmt.Errorf("batch answers COUNT only, got op %q", op)
		}
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, r.end()
}

// appendQueryReply appends the codec reply to one query: the estimate, then
// the compose pair when the answer carries one.
func appendQueryReply(b []byte, r QueryResponse) []byte {
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Estimate))
	if r.Sum != nil {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*r.Sum))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*r.Weight))
	}
	return b
}

// decodeQueryReply decodes a codec reply to one query; parts reports whether
// it carries the compose pair.
func decodeQueryReply(b []byte) (est, sum, weight float64, parts bool, err error) {
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	switch len(b) {
	case 8:
		return f(0), 0, 0, false, nil
	case 24:
		return f(0), f(1), f(2), true, nil
	default:
		return 0, 0, 0, false, fmt.Errorf("a %d-byte query reply", len(b))
	}
}

// appendEstimates appends the codec reply to a batch.
func appendEstimates(b []byte, ests []float64) []byte {
	for _, v := range ests {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// addEstimates adds a codec batch reply elementwise into out, which must
// have one entry per query of the batch.
func addEstimates(out []float64, b []byte) error {
	if len(b) != 8*len(out) {
		return fmt.Errorf("%d reply bytes for %d queries", len(b), len(out))
	}
	for i := range out {
		out[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}
