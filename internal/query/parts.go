package query

import (
	"fmt"

	"pgpub/internal/dataset"
)

// IndexParts is the frozen serving representation of an Index as plain
// slices: exactly the arrays the traversal runs on, with nothing derived and
// nothing pointer-shaped. It is the snapshot wire format of the index — the
// writer dumps each slice as one contiguous block, and the mmap reader wraps
// the file's pages back into these slices zero-copy, so reconstructing a
// serving index costs page faults rather than a rebuild.
//
// Box bounds are dim-major (EntLo[j*nEntries+i] is entry i's lower bound
// along QI dimension j; node bounds likewise over the node count). Per-entry
// sparse histograms are CSR: entry i's bins are ValCode/ValW[ValOff[i]:
// ValOff[i+1]]. Node i's dense histogram is NodeHist[i*dom:(i+1)*dom] and
// its prefix block NodePref[i*(dom+1):(i+1)*(dom+1)]. GridSat is the
// concatenation of the interval-grid summed-area tables in the schema's
// canonical pair order (empty when the index serves every query from the
// tree).
type IndexParts struct {
	// P is the release's retention probability (publication metadata the
	// estimators invert perturbation with).
	P float64
	// Root is the kd-tree root node index, -1 for an empty index.
	Root int32

	EntLo, EntHi []int32
	EntG         []float64
	ValOff       []int32
	ValCode      []int32
	ValW         []float64

	NodeLo, NodeHi      []int32
	NodeG               []float64
	NodeHist, NodePref  []float64
	NodeLeft, NodeRight []int32
	NodeELo, NodeEHi    []int32

	GridSat []float64
}

// Parts returns the index's frozen arrays. The slices share the index's
// backing memory — callers must treat them as read-only.
func (ix *Index) Parts() IndexParts {
	return IndexParts{
		P:         ix.p,
		Root:      ix.root,
		EntLo:     ix.entLo,
		EntHi:     ix.entHi,
		EntG:      ix.entG,
		ValOff:    ix.valOff,
		ValCode:   ix.valCode,
		ValW:      ix.valW,
		NodeLo:    ix.nodeLo,
		NodeHi:    ix.nodeHi,
		NodeG:     ix.nodeG,
		NodeHist:  ix.nodeHist,
		NodePref:  ix.nodePref,
		NodeLeft:  ix.nodeLeft,
		NodeRight: ix.nodeRight,
		NodeELo:   ix.nodeELo,
		NodeEHi:   ix.nodeEHi,
		GridSat:   ix.gridSat,
	}
}

// NewIndexFromParts reconstructs a serving index around frozen arrays —
// the slices are adopted, not copied, so a read-only mmap'd snapshot serves
// directly from file pages. The structural arrays (offsets, codes, child
// links, entry ranges) are validated so corrupt input fails with an error
// instead of an out-of-range panic mid-query; the float blocks are taken on
// faith and are the snapshot layer's CRCs to vouch for. Derived state (the
// global histogram, prefix sums, grid pair lookups) is recomputed — it is
// O(#entries + |U^s| + d²), negligible beside a rebuild.
//
// Answers are bit-identical to the index the parts were taken from: the
// arrays fully determine the traversal.
func NewIndexFromParts(schema *dataset.Schema, parts IndexParts) (*Index, error) {
	if schema == nil {
		return nil, fmt.Errorf("query: index parts need a schema")
	}
	d := schema.D()
	dom := schema.SensitiveDomain()
	nE := len(parts.EntG)
	nN := len(parts.NodeG)
	check := func(name string, got, want int) error {
		if got != want {
			return fmt.Errorf("query: index parts: %s has length %d, want %d", name, got, want)
		}
		return nil
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"EntLo", len(parts.EntLo), d * nE},
		{"EntHi", len(parts.EntHi), d * nE},
		{"ValOff", len(parts.ValOff), nE + 1},
		{"ValW", len(parts.ValW), len(parts.ValCode)},
		{"NodeLo", len(parts.NodeLo), d * nN},
		{"NodeHi", len(parts.NodeHi), d * nN},
		{"NodeHist", len(parts.NodeHist), nN * dom},
		{"NodePref", len(parts.NodePref), nN * (dom + 1)},
		{"NodeLeft", len(parts.NodeLeft), nN},
		{"NodeRight", len(parts.NodeRight), nN},
		{"NodeELo", len(parts.NodeELo), nN},
		{"NodeEHi", len(parts.NodeEHi), nN},
	} {
		if err := check(c.name, c.got, c.want); err != nil {
			return nil, err
		}
	}
	if parts.ValOff[0] != 0 || int(parts.ValOff[nE]) != len(parts.ValCode) {
		return nil, fmt.Errorf("query: index parts: CSR offsets span [%d,%d], want [0,%d]",
			parts.ValOff[0], parts.ValOff[nE], len(parts.ValCode))
	}
	for i := 0; i < nE; i++ {
		if parts.ValOff[i] > parts.ValOff[i+1] {
			return nil, fmt.Errorf("query: index parts: CSR offsets decrease at entry %d", i)
		}
	}
	for o, c := range parts.ValCode {
		if c < 0 || int(c) >= dom {
			return nil, fmt.Errorf("query: index parts: sensitive code %d at bin %d outside domain %d", c, o, dom)
		}
	}
	if nN == 0 {
		if parts.Root != -1 {
			return nil, fmt.Errorf("query: index parts: root %d with no nodes", parts.Root)
		}
	} else if parts.Root < 0 || int(parts.Root) >= nN {
		return nil, fmt.Errorf("query: index parts: root %d outside [0,%d)", parts.Root, nN)
	}
	for i := 0; i < nN; i++ {
		l, r := parts.NodeLeft[i], parts.NodeRight[i]
		if (l < 0) != (r < 0) {
			return nil, fmt.Errorf("query: index parts: node %d has one child", i)
		}
		if l >= 0 {
			// Children precede parents in the frozen order (the build appends
			// bottom-up), which also makes the link check a cycle check.
			if int(l) >= i || int(r) >= i {
				return nil, fmt.Errorf("query: index parts: node %d links forward to %d/%d", i, l, r)
			}
		} else {
			lo, hi := parts.NodeELo[i], parts.NodeEHi[i]
			if lo < 0 || lo > hi || int(hi) > nE {
				return nil, fmt.Errorf("query: index parts: node %d entry range [%d,%d) outside [0,%d]", i, lo, hi, nE)
			}
		}
	}
	ix := &Index{
		schema:    schema,
		p:         parts.P,
		nE:        nE,
		entLo:     parts.EntLo,
		entHi:     parts.EntHi,
		entG:      parts.EntG,
		valOff:    parts.ValOff,
		valCode:   parts.ValCode,
		valW:      parts.ValW,
		nodeLo:    parts.NodeLo,
		nodeHi:    parts.NodeHi,
		nodeG:     parts.NodeG,
		nodeHist:  parts.NodeHist,
		nodePref:  parts.NodePref,
		nodeLeft:  parts.NodeLeft,
		nodeRight: parts.NodeRight,
		nodeELo:   parts.NodeELo,
		nodeEHi:   parts.NodeEHi,
		root:      parts.Root,
	}
	ix.finish()
	if len(parts.GridSat) > 0 {
		grids, err := sliceGrids(schema, parts.GridSat)
		if err != nil {
			return nil, err
		}
		ix.grids, ix.gridSat = grids, parts.GridSat
		ix.wireGrids()
	}
	return ix, nil
}
