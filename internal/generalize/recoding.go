// Package generalize implements Phase 2 of perturbed generalization: global
// recoding of QI attributes through generalization hierarchies, the classic
// generalization principles the paper analyses in Section III (k-anonymity,
// ℓ-diversity and (c,ℓ)-diversity), and the three Phase-2 algorithms PG
// runs: kd-cell partitioning in the style of Mondrian [16], top-down
// specialization after Fung et al. [11], and full-domain lattice search
// after LeFevre et al. [13].
package generalize

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
)

// Recoding maps each QI attribute to a cut of its hierarchy. Recoding a tuple
// replaces every QI code with the covering cut node; because cuts are
// antichains, the result satisfies Property G3 (global recoding): two
// distinct generalized QI-vectors never share a specialization.
//
// Ownership rule: a Cut installed in Cuts is an immutable snapshot and may be
// shared between recodings. Cut has no mutating methods — Cut.Refine returns
// a fresh cut — so evolving a recoding means replacing Cuts[j], never
// altering the Cut it points to. The incremental grouping engine
// (groupengine.go, tds.go) depends on this: groups derived under an earlier
// cut stay valid because that cut can never change underneath them.
type Recoding struct {
	Hierarchies []*hierarchy.Hierarchy
	Cuts        []*hierarchy.Cut
}

// NewRecoding validates that each cut belongs to its hierarchy and that the
// hierarchies match the schema's QI domains.
func NewRecoding(schema *dataset.Schema, hiers []*hierarchy.Hierarchy, cuts []*hierarchy.Cut) (*Recoding, error) {
	if len(hiers) != schema.D() || len(cuts) != schema.D() {
		return nil, fmt.Errorf("generalize: %d hierarchies, %d cuts for %d QI attributes",
			len(hiers), len(cuts), schema.D())
	}
	for j, h := range hiers {
		if h.Leaves() != schema.QI[j].Size() {
			return nil, fmt.Errorf("generalize: hierarchy %d has %d leaves, attribute %q has %d values",
				j, h.Leaves(), schema.QI[j].Name, schema.QI[j].Size())
		}
		if cuts[j].Hierarchy() != h {
			return nil, fmt.Errorf("generalize: cut %d does not belong to hierarchy %d", j, j)
		}
	}
	return &Recoding{Hierarchies: hiers, Cuts: cuts}, nil
}

// TopRecoding returns the recoding where every attribute is fully suppressed.
func TopRecoding(schema *dataset.Schema, hiers []*hierarchy.Hierarchy) (*Recoding, error) {
	cuts := make([]*hierarchy.Cut, len(hiers))
	for j, h := range hiers {
		cuts[j] = hierarchy.TopCut(h)
	}
	return NewRecoding(schema, hiers, cuts)
}

// D returns the number of QI attributes.
func (r *Recoding) D() int { return len(r.Cuts) }

// Generalize maps a QI vector of leaf codes to its generalized form (a
// vector of hierarchy node IDs).
func (r *Recoding) Generalize(v []int32) []int32 {
	g := make([]int32, len(v))
	for j := range v {
		g[j] = r.Cuts[j].Map(v[j])
	}
	return g
}

// GeneralizeInto is Generalize without allocation; dst must have length d.
func (r *Recoding) GeneralizeInto(dst, v []int32) {
	for j := range v {
		dst[j] = r.Cuts[j].Map(v[j])
	}
}

// GeneralizesVector reports whether the generalized vector g (node IDs)
// generalizes the raw QI vector v (leaf codes), per the paper's definition:
// component-wise set membership.
func (r *Recoding) GeneralizesVector(g, v []int32) bool {
	for j := range v {
		if !r.Hierarchies[j].Covers(g[j], v[j]) {
			return false
		}
	}
	return true
}

// Labels renders a generalized vector with the schema's attribute labels.
func (r *Recoding) Labels(schema *dataset.Schema, g []int32) []string {
	out := make([]string, len(g))
	for j := range g {
		out[j] = r.Hierarchies[j].Label(g[j], schema.QI[j])
	}
	return out
}

// Clone returns a recoding whose cut vector can evolve independently of the
// receiver's. Hierarchies and the Cut objects themselves are shared: cuts are
// immutable snapshots (see the ownership rule on Recoding), so copying the
// pointer slice is a full logical copy — the former deep copy only hid
// aliasing bugs that mutation of a shared cut would have caused.
func (r *Recoding) Clone() *Recoding {
	return &Recoding{
		Hierarchies: r.Hierarchies,
		Cuts:        append([]*hierarchy.Cut(nil), r.Cuts...),
	}
}

// Groups is the partition of a table's rows into QI-groups (strata): rows
// whose generalized QI-vectors coincide.
//
// Canonical form (what GroupBy produces and every incremental path in the
// grouping engine reproduces): row indices within a group ascend, and groups
// are ordered by first appearance, i.e. by their smallest row index.
type Groups struct {
	// Keys[i] is the generalized QI-vector shared by group i.
	Keys [][]int32
	// Rows[i] lists the table row indices of group i.
	Rows [][]int
}

// Len returns the number of groups.
func (g *Groups) Len() int { return len(g.Keys) }

// MinSize returns the smallest group cardinality, or 0 for no groups.
func (g *Groups) MinSize() int {
	if g.Len() == 0 {
		return 0
	}
	m := len(g.Rows[0])
	for _, rows := range g.Rows[1:] {
		if len(rows) < m {
			m = len(rows)
		}
	}
	return m
}
