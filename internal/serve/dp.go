package serve

import (
	"fmt"
	"math"
	"net/http"

	"pgpub/internal/dataset"
	"pgpub/internal/dp"
	"pgpub/internal/obs"
)

// This file is the serving layer's differential-privacy mode (docs/DP.md):
// with Config.DP (or CoordConfig.DP) set, every /v1/query and /v1/batch
// request must present a provisioned X-API-Key, is charged ε_per_query
// against that key's budget (429 + Retry-After on exhaustion, the admission
// limiter's shedding shape), and receives a Laplace-noised answer instead
// of the exact aggregate. The noise is a deterministic function of
// (root seed, API key, release CRC, canonical query encoding), so repeating
// a query cannot average it away and an offline holder of the seed
// (pgquery's DP mode) reproduces served answers bit for bit.
//
// The exact engine underneath is untouched: answers flow through the cache
// and singleflight as always (both hold exact values — noise is re-derived
// per response, which is free and keeps cached answers key-specific), and a
// server without a DP config serves byte-identical responses to before.

// DPConfig enables the differential-privacy serving mode.
type DPConfig struct {
	// Ledger is the per-API-key budget table (dp.LoadBudgets). Required.
	Ledger *dp.Ledger
	// Seed is the mechanism's root noise seed — the secret. pgserve draws it
	// from crypto/rand unless -dp-seed pins it (tests, offline audits).
	Seed int64
}

// DPInfo is the privacy accounting attached to a noised answer.
type DPInfo struct {
	// Epsilon is the ε charged for this answer.
	Epsilon float64 `json:"epsilon"`
	// Remaining is the key's budget left after the charge.
	Remaining float64 `json:"remaining"`
}

// DPMetadata advertises the DP mode at /v1/metadata: enough for a client to
// know its answers are noised and how, without exposing per-key budgets on
// an unauthenticated endpoint (GET /v1/dp/budget serves those, keyed).
type DPMetadata struct {
	Mechanism string `json:"mechanism"` // "laplace"
	Keys      int    `json:"keys"`      // provisioned API keys
}

// BudgetStatus is the GET /v1/dp/budget document for one API key.
type BudgetStatus struct {
	Key       string  `json:"key"`
	Total     float64 `json:"epsilon_total"`
	PerQuery  float64 `json:"epsilon_per_query"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
}

// serverDP is the request-path state of the DP mode, on a single-snapshot
// Server and a Coordinator's alike. It hangs off the long-lived
// server object — never the per-release state — so spent budget survives
// hot-swap reloads (the noise re-keys with the new release CRC; ε does not
// refund).
type serverDP struct {
	ledger *dp.Ledger
	seed   int64

	met struct {
		queries  *obs.Counter // dp.queries: answers noised
		rejected *obs.Counter // dp.rejected: missing or unknown API key
	}
}

func newServerDP(cfg *DPConfig, reg *obs.Registry) (*serverDP, error) {
	if cfg == nil {
		return nil, nil
	}
	if cfg.Ledger == nil || cfg.Ledger.Len() == 0 {
		return nil, fmt.Errorf("serve: DPConfig.Ledger must provision at least one API key")
	}
	sd := &serverDP{ledger: cfg.Ledger, seed: cfg.Seed}
	sd.met.queries = reg.Counter("dp.queries")
	sd.met.rejected = reg.Counter("dp.rejected")
	cfg.Ledger.Instrument(reg)
	return sd, nil
}

// authorize resolves the request's X-API-Key against the ledger, writing
// the 401/403 itself when the request cannot proceed.
func (sd *serverDP) authorize(w http.ResponseWriter, r *http.Request) (*dp.Budget, bool) {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		sd.met.rejected.Inc()
		writeJSON(w, http.StatusUnauthorized, errorResponse{Error: "DP mode: the X-API-Key header is required"})
		return nil, false
	}
	b := sd.ledger.Key(key)
	if b == nil {
		sd.met.rejected.Inc()
		writeJSON(w, http.StatusForbidden, errorResponse{Error: fmt.Sprintf("DP mode: unknown API key %q", key)})
		return nil, false
	}
	return b, true
}

// charge spends n queries' ε from the request's budget, or writes the 429.
// Budgets do not replenish on their own — Retry-After is a polite pacing
// hint; the key stays exhausted until the operator provisions a new ledger.
func (rq *request) charge(n int) bool {
	b, cost := rq.budget, float64(n)*rq.budget.PerQuery
	ok, rem := rq.s.dp.ledger.Charge(b, cost)
	if !ok {
		rq.w.Header().Set("Retry-After", "3600")
		writeJSON(rq.w, http.StatusTooManyRequests, errorResponse{
			Error: fmt.Sprintf("ε-budget exhausted for key %q: %.6g of ε_total %.6g spent, %.6g needed", b.Key, b.Spent(), b.Total, cost),
		})
	}
	rq.rem = rem
	return ok
}

// noised is the DP answer to the request's query: val through
// dp.Mechanism.Answer at the charged ε. The compose pair is withheld from
// DP responses: publishing noised parts alongside the quotient would spend
// ε the accounting never charged.
func (rq *request) noised(val answerVal) (float64, error) {
	m := dp.Mechanism{Seed: rq.s.dp.seed, CRC: rq.rel.crc}
	est, err := m.Answer(rq.budget.Key, rq.key, rq.op, val.est, val.sum, val.weight, rq.budget.PerQuery, sumSensitivity(rq.rel.schema, rq.values))
	if err == nil {
		rq.s.dp.met.queries.Inc()
	}
	return est, err
}

// handleBudget is GET /v1/dp/budget: the authenticated key's own account.
func (sd *serverDP) handleBudget(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	b, ok := sd.authorize(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, BudgetStatus{
		Key: b.Key, Total: b.Total, PerQuery: b.PerQuery,
		Spent: b.Spent(), Remaining: b.Remaining(),
	})
}

// metadata is the /v1/metadata advertisement.
func (sd *serverDP) metadata() *DPMetadata {
	if sd == nil {
		return nil
	}
	return &DPMetadata{Mechanism: "laplace", Keys: sd.ledger.Len()}
}

// sumSensitivity is the global sensitivity the sum/avg scale is built
// from: one row contributes at most the largest |value| in the sensitive
// domain. The default value vector maps each code to itself, so its bound
// is the domain width minus one. (The bound is stated over the published
// table the estimates reconstruct from.)
func sumSensitivity(schema *dataset.Schema, values []float64) float64 {
	if values == nil {
		return float64(schema.SensitiveDomain() - 1)
	}
	gs := 0.0
	for _, v := range values {
		if a := math.Abs(v); a > gs {
			gs = a
		}
	}
	return gs
}
