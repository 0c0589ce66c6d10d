package pg

import (
	"encoding/json"
	"fmt"
	"io"
)

// Metadata is the publication metadata a publisher announces alongside the
// released CSV: everything a consumer legitimately needs (the retention
// probability drives reconstruction-based mining and query answering; K and
// the algorithm document the release; the guarantee block records what the
// publisher certified). It deliberately contains nothing secret — all
// fields are already derivable from the publisher's public commitments.
type Metadata struct {
	// P is the Phase-1 retention probability.
	P float64 `json:"retention_probability"`
	// K is the QI-group size floor.
	K int `json:"k"`
	// Algorithm names the Phase-2 recoder.
	Algorithm string `json:"algorithm"`
	// Rows is |D*|.
	Rows int `json:"rows"`
	// Guarantee optionally records the certified level.
	Guarantee *GuaranteeMetadata `json:"guarantee,omitempty"`
}

// GuaranteeMetadata records the certified background-sensitive level.
type GuaranteeMetadata struct {
	Lambda float64 `json:"lambda"`
	Rho1   float64 `json:"rho1"`
	Rho2   float64 `json:"rho2"`
	Delta  float64 `json:"delta"`
}

// Metadata assembles the publication's metadata, certifying the guarantees
// for the given λ and ρ₁ (pass 0, 0 to omit the guarantee block).
func (p *Published) Metadata(lambda, rho1 float64) (Metadata, error) {
	m := Metadata{
		P:         p.P,
		K:         p.K,
		Algorithm: p.Algorithm.String(),
		Rows:      p.Len(),
	}
	if lambda > 0 && rho1 > 0 {
		rho2, delta, err := p.Guarantees(lambda, rho1)
		if err != nil {
			return Metadata{}, err
		}
		m.Guarantee = &GuaranteeMetadata{Lambda: lambda, Rho1: rho1, Rho2: rho2, Delta: delta}
	}
	return m, nil
}

// Write serializes the metadata as indented JSON.
func (m Metadata) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("pg: writing metadata: %w", err)
	}
	return nil
}

// ReadMetadata parses a metadata document and validates its fields; the
// algorithm must be one ParseAlgorithm knows.
func ReadMetadata(r io.Reader) (Metadata, error) {
	var m Metadata
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return Metadata{}, fmt.Errorf("pg: reading metadata: %w", err)
	}
	if m.P < 0 || m.P > 1 {
		return Metadata{}, fmt.Errorf("pg: metadata retention probability %v outside [0,1]", m.P)
	}
	if m.K < 1 {
		return Metadata{}, fmt.Errorf("pg: metadata k = %d", m.K)
	}
	if m.Rows < 0 {
		return Metadata{}, fmt.Errorf("pg: metadata rows = %d", m.Rows)
	}
	if _, err := ParseAlgorithm(m.Algorithm); err != nil {
		return Metadata{}, fmt.Errorf("pg: metadata: %w", err)
	}
	return m, nil
}
