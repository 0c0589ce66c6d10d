package query

import (
	"cmp"
	"fmt"
	"slices"

	"pgpub/internal/dataset"
	"pgpub/internal/par"
)

// The interval-grid layer of the Index: per-dim-pair summed-area tables that
// answer queries restricting at most two QI attributes in O(1) lookups —
// the shape Workload generates by default (RestrictAttrs 2) and the shape
// cmd/pgquery's -where flag usually builds. The region weight of a query is
//
//	b = Σ_i G_i · Π_j fraction_j(box_i, range_j)
//
// and each per-dim fraction is additive over domain cells (overlap/width =
// Σ_{cells in overlap} 1/width), so spreading every box's density
// G·(1/w_a)·(1/w_b) over its cell rectangle in the (a,b) plane and prefix-
// summing yields a table whose 3-d inclusion–exclusion (two QI dims plus
// the sensitive value) returns exactly the Σ G·vf·wv sums the estimators
// need. Queries restricting three or more attributes fall back to the
// kd traversal in index.go, which is exact for any shape.
//
// Memory is Σ_{a<b} (size_a+1)(size_b+1)(|U^s|+1) floats — ~7 MB for the
// 8-attribute SAL schema — and construction is O(4·#entries + #cells) per
// pair via the difference-array trick. Schemas whose pair tables would
// exceed gridCellBudget skip the grid layer entirely and serve every query
// from the tree.

// gridCellBudget caps the total float64 cells of all pair tables (4M cells
// = 32 MiB). SAL needs ~0.9M; schemas with very large QI domains fall back
// to the tree rather than allocate unbounded tables.
const gridCellBudget = 4 << 20

// pairGrid is the summed-area table of one dim pair (a < b):
// sat[u][v][y] = Σ of density over cells (u' < u, v' < v, y' < y), laid out
// flat with y fastest.
type pairGrid struct {
	a, b   int
	dv, dy int // padded extents of v and y (size_b+1, domain+1)
	sat    []float64
}

// at reads the table at padded coordinates.
func (g *pairGrid) at(u, v, y int32) float64 {
	return g.sat[(int(u)*g.dv+int(v))*g.dy+int(y)]
}

// rng is the 3-d inclusion–exclusion over inclusive cell ranges.
func (g *pairGrid) rng(u1, u2, v1, v2, y1, y2 int32) float64 {
	hi := g.at(u2+1, v2+1, y2+1) - g.at(u1, v2+1, y2+1) - g.at(u2+1, v1, y2+1) + g.at(u1, v1, y2+1)
	lo := g.at(u2+1, v2+1, y1) - g.at(u1, v2+1, y1) - g.at(u2+1, v1, y1) + g.at(u1, v1, y1)
	return hi - lo
}

// neumaierLines prefix-sums buf along one axis with Neumaier compensation,
// keeping per-cell rounding error at a few ulps regardless of chain length —
// the grid's answers must stay within the 1e-9 scan-equivalence tolerance
// even at the far corner of the table.
//
// buf is blocks consecutive blocks of extent×stride cells; each block holds
// stride independent lines (offsets 0..stride-1 of the block) whose cells
// are stride apart. The lines advance together, one contiguous row of stride
// cells per step, so the pass streams through memory; sum and comp carry the
// lines' running state and need stride cells. Every line still sees its own
// cells in order, so the result is the same as summing it alone. A stride-1
// pass has one line per block and takes neumaierRuns instead.
func neumaierLines(buf []float64, blocks, extent, stride int, sum, comp []float64) {
	sum, comp = sum[:stride], comp[:stride]
	for blk := 0; blk < blocks; blk++ {
		clear(sum)
		clear(comp)
		base := blk * extent * stride
		for i := 0; i < extent; i++ {
			row := buf[base+i*stride : base+(i+1)*stride]
			for b, x := range row {
				sum[b], comp[b] = neumaierStep(sum[b], comp[b], x)
				row[b] = sum[b] + comp[b]
			}
		}
	}
}

// neumaierRuns is neumaierLines for stride 1: blocks lines of extent
// consecutive cells each. One line's running sum is a chain of dependent
// additions, so four lines advance in lockstep to keep the adder busy; each
// line still sees its own cells in order, with the same arithmetic, so the
// result is the same as summing it alone.
func neumaierRuns(buf []float64, blocks, extent int) {
	blk := 0
	for ; blk+4 <= blocks; blk += 4 {
		base := blk * extent
		l0 := buf[base : base+extent]
		l1 := buf[base+extent : base+2*extent]
		l2 := buf[base+2*extent : base+3*extent]
		l3 := buf[base+3*extent : base+4*extent]
		var s0, s1, s2, s3, c0, c1, c2, c3 float64
		for i := range l0 {
			s0, c0 = neumaierStep(s0, c0, l0[i])
			s1, c1 = neumaierStep(s1, c1, l1[i])
			s2, c2 = neumaierStep(s2, c2, l2[i])
			s3, c3 = neumaierStep(s3, c3, l3[i])
			l0[i], l1[i], l2[i], l3[i] = s0+c0, s1+c1, s2+c2, s3+c3
		}
	}
	for ; blk < blocks; blk++ {
		line := buf[blk*extent : (blk+1)*extent]
		var sum, comp float64
		for i, x := range line {
			sum, comp = neumaierStep(sum, comp, x)
			line[i] = sum + comp
		}
	}
}

// neumaierStep adds x to a running compensated sum and returns the new sum
// and compensation. Neumaier's step adds the rounding error of sum+x to the
// compensation, computed with a branch on which operand is larger; Knuth's
// TwoSum, used here, computes that same error exactly without the branch,
// so the compensation — and every table cell — is identical bit for bit.
func neumaierStep(sum, comp, x float64) (float64, float64) {
	t := sum + x
	xr := t - sum
	sr := t - xr
	return t, comp + ((sum - sr) + (x - xr))
}

// gridLayout enumerates the pair tables a schema gets, in canonical (a<b)
// order, and their total padded cell count. The layout is a pure function of
// the schema, which is what lets the serialized grid layer be one
// concatenated float block: reader and writer agree on every offset.
func gridLayout(s *dataset.Schema) (pairs [][2]int, sizes []int, total int) {
	d := s.D()
	dom := s.SensitiveDomain()
	for a := 0; a < d; a++ {
		for b := a + 1; b < d; b++ {
			sz := (s.QI[a].Size() + 1) * (s.QI[b].Size() + 1) * (dom + 1)
			pairs = append(pairs, [2]int{a, b})
			sizes = append(sizes, sz)
			total += sz
		}
	}
	return pairs, sizes, total
}

// buildGrids constructs the pair tables; returns nil when the schema has
// fewer than two QI attributes or the tables would blow the cell budget.
// Every table is a sub-slice of the single returned backing array — the
// form the snapshot writer serializes and sliceGrids re-wraps. The tables
// are disjoint, so they are built in parallel, each worker reusing one
// gridScratch; a table's cells do not depend on which worker built it, or
// when.
func (ix *Index) buildGrids() ([]pairGrid, []float64) {
	if ix.schema.D() < 2 {
		return nil, nil
	}
	pairs, sizes, total := gridLayout(ix.schema)
	if total > gridCellBudget {
		return nil, nil
	}
	backing := make([]float64, total)
	offs := make([]int, len(pairs)+1)
	for i, sz := range sizes {
		offs[i+1] = offs[i] + sz
	}
	grids := make([]pairGrid, len(pairs))
	// Largest tables first, so the last table a worker picks up is a small
	// one and the workers finish together.
	bySize := make([]int, len(pairs))
	for i := range bySize {
		bySize[i] = i
	}
	slices.SortStableFunc(bySize, func(x, y int) int { return cmp.Compare(sizes[y], sizes[x]) })
	workers := min(par.N(0), len(pairs))
	scratch := make(chan *gridScratch, workers)
	for w := 0; w < workers; w++ {
		scratch <- &gridScratch{}
	}
	par.ForEach(workers, len(pairs), func(k int) {
		i := bySize[k]
		sc := <-scratch
		grids[i] = ix.buildPair(pairs[i][0], pairs[i][1], backing[offs[i]:offs[i+1]:offs[i+1]], sc)
		scratch <- sc
	})
	return grids, backing
}

// gridScratch is one worker's reusable pair-table buffers: the difference
// array and the running state of neumaierLines.
type gridScratch struct {
	diff, sum, comp []float64
}

// zeroed returns buf resized to n and zeroed, reallocating only when its
// capacity is short.
func zeroed(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// sliceGrids re-wraps a deserialized grid backing array into pair tables.
// The backing must have exactly the schema's gridLayout total length.
func sliceGrids(s *dataset.Schema, backing []float64) ([]pairGrid, error) {
	pairs, sizes, total := gridLayout(s)
	if len(backing) != total {
		return nil, fmt.Errorf("query: grid backing has %d cells, schema needs %d", len(backing), total)
	}
	dom := s.SensitiveDomain()
	grids := make([]pairGrid, 0, len(pairs))
	off := 0
	for i, p := range pairs {
		grids = append(grids, pairGrid{
			a:   p[0],
			b:   p[1],
			dv:  s.QI[p[1]].Size() + 1,
			dy:  dom + 1,
			sat: backing[off : off+sizes[i] : off+sizes[i]],
		})
		off += sizes[i]
	}
	return grids, nil
}

// buildPair builds one pair table into the provided sat backing: corner
// difference updates per entry, two prefix passes to materialize the
// density, then the 3-d cumulative. The entry pass reads four contiguous
// dim-major bound streams plus the CSR histogram — cache-linear in the
// entry count.
func (ix *Index) buildPair(a, b int, sat []float64, sc *gridScratch) pairGrid {
	dom := ix.schema.SensitiveDomain()
	sa, sb := ix.schema.QI[a].Size(), ix.schema.QI[b].Size()
	du, dv, dy := sa+1, sb+1, dom+1
	// diff[u][v][y], y fastest, unpadded in y.
	sc.diff = zeroed(sc.diff, du*dv*dom)
	sc.sum = zeroed(sc.sum, dv*dy)
	sc.comp = zeroed(sc.comp, dv*dy)
	diff := sc.diff
	idx := func(u, v int32, y int32) int { return (int(u)*dv+int(v))*dom + int(y) }
	loA, hiA := ix.entLo[a*ix.nE:(a+1)*ix.nE], ix.entHi[a*ix.nE:(a+1)*ix.nE]
	loB, hiB := ix.entLo[b*ix.nE:(b+1)*ix.nE], ix.entHi[b*ix.nE:(b+1)*ix.nE]
	for i := 0; i < ix.nE; i++ {
		la, ha := loA[i], hiA[i]
		lb, hb := loB[i], hiB[i]
		inv := 1 / (float64(ha-la+1) * float64(hb-lb+1))
		for o := ix.valOff[i]; o < ix.valOff[i+1]; o++ {
			w := ix.valW[o] * inv
			code := ix.valCode[o]
			diff[idx(la, lb, code)] += w
			diff[idx(la, hb+1, code)] -= w
			diff[idx(ha+1, lb, code)] -= w
			diff[idx(ha+1, hb+1, code)] += w
		}
	}
	// Prefix along u then v turns the difference array into the density
	// D(u,v,y); entries at the padding row/column come out zero.
	neumaierLines(diff, 1, du, dv*dom, sc.sum, sc.comp)
	neumaierLines(diff, du, dv, dom, sc.sum, sc.comp)
	// Cumulate the density into the padded summed-area table along u, v
	// and y.
	g := pairGrid{a: a, b: b, dv: dv, dy: dy, sat: sat}
	for u := 0; u < sa; u++ {
		for v := 0; v < sb; v++ {
			src := (u*dv + v) * dom
			dst := ((u+1)*dv + (v + 1)) * dy
			copy(g.sat[dst+1:dst+dy], diff[src:src+dom])
		}
	}
	neumaierLines(g.sat, 1, du, dv*dy, sc.sum, sc.comp)
	neumaierLines(g.sat, du, dv, dy, sc.sum, sc.comp)
	neumaierRuns(g.sat, du*dv, dy)
	return g
}

// gatherGrid answers a query restricting at most two attributes from the
// grid layer. ok is false when the grid cannot serve it — no tables, three
// or more restricted dims, or a region weight so close to zero that grid
// cancellation noise could hide a genuinely empty region (the caller then
// re-answers through the tree, whose zeros are exact).
func (ix *Index) gatherGrid(act []activeRange, v *valuer) (a, b float64, ok bool) {
	switch len(act) {
	case 0:
		// The full domain is served from the exact global aggregates.
		b = ix.totalG
		switch {
		case v.wv == nil:
		case v.band:
			a = ix.pref[v.hi+1] - ix.pref[v.lo]
		default:
			for code, h := range ix.hist {
				if h != 0 {
					a += h * v.wv[code]
				}
			}
		}
		return a, b, true
	case 1, 2:
		if ix.grids == nil {
			return 0, 0, false
		}
	default:
		return 0, 0, false
	}
	da, u1, u2 := act[0].dim, act[0].lo, act[0].hi
	var db int
	var v1, v2 int32
	if len(act) == 2 {
		db, v1, v2 = act[1].dim, act[1].lo, act[1].hi
	} else {
		db = ix.partner[da]
		v1, v2 = 0, int32(ix.schema.QI[db].Size()-1)
		if db < da {
			da, db = db, da
			u1, u2, v1, v2 = v1, v2, u1, u2
		}
	}
	g := &ix.grids[ix.pairIdx[da*ix.schema.D()+db]]
	dom := int32(ix.schema.SensitiveDomain())
	b = g.rng(u1, u2, v1, v2, 0, dom-1)
	if b < ix.tinyB {
		return 0, 0, false
	}
	switch {
	case v.wv == nil:
	case v.band:
		a = g.rng(u1, u2, v1, v2, v.lo, v.hi)
	default:
		for code, w := range v.wv {
			if w != 0 {
				a += w * g.rng(u1, u2, v1, v2, int32(code), int32(code))
			}
		}
	}
	return a, b, true
}
