package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"pgpub/internal/dataset"
	"pgpub/internal/query"
	"pgpub/internal/serve"
)

// answerer is the part of query.Index and shard.Group the pools read
// expected answers from.
type answerer interface {
	Count(q query.CountQuery) (float64, error)
	Naive(q query.CountQuery) (float64, error)
	AvgParts(q query.CountQuery, value query.SensitiveValue) (sum, weight float64, err error)
}

// entry is one pool query: its wire body and, in exact mode, the answer the
// server must return bit for bit.
type entry struct {
	op   string
	q    query.CountQuery
	body []byte
	want float64
}

// codeValue is the server's default sum/avg value: each sensitive code
// stands for itself.
func codeValue(code int32) float64 { return float64(code) }

var errEmptyRegion = errors.New("region estimated empty")

// exact answers one query the way the server's exact mode does: sum and avg
// through AvgParts, avg as the quotient of the pair.
func exact(a answerer, op string, q query.CountQuery) (float64, error) {
	switch op {
	case "count":
		return a.Count(q)
	case "naive":
		return a.Naive(q)
	case "sum":
		s, _, err := a.AvgParts(q, codeValue)
		return s, err
	case "avg":
		s, w, err := a.AvgParts(q, codeValue)
		if err != nil {
			return 0, err
		}
		if w == 0 {
			return 0, errEmptyRegion
		}
		return s / w, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

// poolSpec shapes a query pool: how many QI attributes each query restricts
// (drawn uniformly from dims), how wide each range is, and the op mix.
type poolSpec struct {
	dims  []int
	width float64
	ops   []string
	share []float64 // op shares, summing to 1
}

// The grid path answers queries restricting at most two attributes; wider
// ones fall back to the kd traversal. Each spec below says which it takes.
var (
	mixedSpec = poolSpec{dims: []int{1, 2, 3, 4}, width: 0.5, // half grid, half kd
		ops: []string{"count", "sum", "avg", "naive"}, share: []float64{0.6, 0.2, 0.1, 0.1}}
	gridSpec = poolSpec{dims: []int{1, 2}, width: 0.5,
		ops: mixedSpec.ops, share: mixedSpec.share}
	// Wide ranges keep every avg region far from empty, so DP noise on its
	// weight never makes the answer fail.
	kdSpec = poolSpec{dims: []int{3, 4}, width: 0.7,
		ops: []string{"count", "sum", "avg"}, share: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}}
)

func (p poolSpec) op(rng *rand.Rand) string {
	u := rng.Float64()
	for i, s := range p.share {
		if u < s {
			return p.ops[i]
		}
		u -= s
	}
	return p.ops[len(p.ops)-1]
}

// buildPool draws n distinct queries (by canonical key) that keep accepts.
// keep may fill e.want; queries it rejects — an avg over an empty region,
// say — are redrawn, so a pool holds only queries that answer.
func buildPool(schema *dataset.Schema, n int, rng *rand.Rand, spec poolSpec, keep func(e *entry) bool) ([]entry, error) {
	seen := map[string]bool{}
	pool := make([]entry, 0, n)
	for tries := 0; len(pool) < n; tries++ {
		if tries > 20*n+1000 {
			return nil, fmt.Errorf("query pool: only %d of %d drawn queries qualify", len(pool), n)
		}
		op := spec.op(rng)
		cfg := query.WorkloadConfig{Queries: 1, QIFraction: spec.width, RestrictAttrs: spec.dims[rng.Intn(len(spec.dims))], Rng: rng}
		if (op == "count" || op == "naive") && rng.Float64() < 0.3 {
			cfg.SensitiveFraction = 0.4 // sum and avg take no sensitive mask
		}
		qs, err := query.Workload(schema, cfg)
		if err != nil {
			return nil, err
		}
		e := entry{op: op, q: qs[0]}
		key := serve.QueryKey(schema, e.op, e.q, nil)
		if seen[key] || !keep(&e) {
			continue
		}
		seen[key] = true
		if e.body, err = wireBody(schema, e); err != nil {
			return nil, err
		}
		pool = append(pool, e)
	}
	return pool, nil
}

// keepExact accepts queries a answers without error and records the answer.
func keepExact(a answerer) func(e *entry) bool {
	return func(e *entry) bool {
		v, err := exact(a, e.op, e.q)
		e.want = v
		return err == nil
	}
}

// wireBody renders a pool query as a /v1/query body, ranges by dim and code.
func wireBody(schema *dataset.Schema, e entry) ([]byte, error) {
	req := serve.QueryRequest{Op: e.op}
	for j, r := range e.q.QI {
		if r.Lo == 0 && int(r.Hi) == schema.QI[j].Size()-1 {
			continue
		}
		dim := j
		req.Where = append(req.Where, serve.WhereClause{
			Dim: &dim, Lo: json.RawMessage(fmt.Sprint(r.Lo)), Hi: json.RawMessage(fmt.Sprint(r.Hi)),
		})
	}
	for code, in := range e.q.Sensitive {
		if in {
			req.Sensitive = append(req.Sensitive, int32(code))
		}
	}
	return json.Marshal(req)
}
