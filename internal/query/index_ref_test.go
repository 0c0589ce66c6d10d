package query

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

// The index builder as it was before the selection-based build: an
// array-of-structs scratch re-sorted with sort.Slice at every tree level,
// per-node histograms summed over every entry below, and the pair tables
// built one after another. Kept test-only as the reference the new builder
// must reproduce byte for byte.

// refValWeight is one nonzero bin of an entry's sparse sensitive histogram.
type refValWeight struct {
	code int32
	w    float64
}

// refEntry is one distinct QI box of the publication (build scratch; the
// frozen form lives in the Index's ent* arrays).
type refEntry struct {
	box generalize.Box
	g   float64 // Σ G of the rows sharing the box
	// vals is the sparse G-weighted histogram of observed sensitive values.
	// Stratified sampling publishes one tuple per group, so it typically has
	// exactly one element.
	vals []refValWeight
}

// refNode is one kd-tree node over a contiguous run of entries (build
// scratch; the frozen form lives in the Index's node* arrays).
type refNode struct {
	bound generalize.Box // bounding box of every entry below
	g     float64        // subtree Σ G
	hist  []float64      // subtree dense G-weighted sensitive histogram
	// pref is the prefix sum of hist (pref[y] = Σ hist[:y]), so a contiguous
	// sensitive band [lo,hi] — the shape Workload generates and pgquery's
	// -income flag builds — costs one subtraction at a contained node
	// instead of a histogram dot product. hist holds exact integers (sums of
	// G), so the prefix difference is bit-identical to the loop.
	pref []float64
	// left/right are child node indices; -1 marks a leaf, whose entries are
	// entries[lo:hi].
	left, right int32
	lo, hi      int32
}

// refIndex builds an index the old way.
func refIndex(pub *pg.Published) *Index {
	ix := &Index{schema: pub.Schema, p: pub.P, root: -1}
	aggs := pub.Aggregates()
	b := refBuilder{
		schema:  pub.Schema,
		entries: make([]refEntry, len(aggs)),
	}
	for i, a := range aggs {
		e := refEntry{box: a.Box, g: float64(a.G)}
		for code, w := range a.Hist {
			if w != 0 {
				e.vals = append(e.vals, refValWeight{code: int32(code), w: float64(w)})
			}
		}
		b.entries[i] = e
	}
	if len(b.entries) > 0 {
		b.nodes = make([]refNode, 0, 2*(len(b.entries)/indexLeafSize+1))
		ix.root = b.build(0, len(b.entries))
	}
	refFreeze(ix, b.entries, b.nodes)
	ix.finish()
	ix.grids, ix.gridSat = refBuildGrids(ix)
	ix.wireGrids()
	return ix
}

// refFreeze converts the AoS build scratch into the frozen SoA arrays.
func refFreeze(ix *Index, entries []refEntry, nodes []refNode) {
	d := ix.schema.D()
	dom := ix.schema.SensitiveDomain()
	nE := len(entries)
	ix.nE = nE
	ix.entLo = make([]int32, d*nE)
	ix.entHi = make([]int32, d*nE)
	ix.entG = make([]float64, nE)
	ix.valOff = make([]int32, nE+1)
	nv := 0
	for i := range entries {
		nv += len(entries[i].vals)
	}
	ix.valCode = make([]int32, 0, nv)
	ix.valW = make([]float64, 0, nv)
	for i := range entries {
		e := &entries[i]
		for j := 0; j < d; j++ {
			ix.entLo[j*nE+i] = e.box.Lo[j]
			ix.entHi[j*nE+i] = e.box.Hi[j]
		}
		ix.entG[i] = e.g
		for _, vw := range e.vals {
			ix.valCode = append(ix.valCode, vw.code)
			ix.valW = append(ix.valW, vw.w)
		}
		ix.valOff[i+1] = int32(len(ix.valCode))
	}
	nN := len(nodes)
	ix.nodeLo = make([]int32, d*nN)
	ix.nodeHi = make([]int32, d*nN)
	ix.nodeG = make([]float64, nN)
	ix.nodeHist = make([]float64, nN*dom)
	ix.nodePref = make([]float64, nN*(dom+1))
	ix.nodeLeft = make([]int32, nN)
	ix.nodeRight = make([]int32, nN)
	ix.nodeELo = make([]int32, nN)
	ix.nodeEHi = make([]int32, nN)
	for i := range nodes {
		n := &nodes[i]
		for j := 0; j < d; j++ {
			ix.nodeLo[j*nN+i] = n.bound.Lo[j]
			ix.nodeHi[j*nN+i] = n.bound.Hi[j]
		}
		ix.nodeG[i] = n.g
		copy(ix.nodeHist[i*dom:(i+1)*dom], n.hist)
		copy(ix.nodePref[i*(dom+1):(i+1)*(dom+1)], n.pref)
		ix.nodeLeft[i] = n.left
		ix.nodeRight[i] = n.right
		ix.nodeELo[i] = n.lo
		ix.nodeEHi[i] = n.hi
	}
}

// refBuilder is the AoS construction scratch freeze() consumes.
type refBuilder struct {
	schema  *dataset.Schema
	entries []refEntry
	nodes   []refNode
}

// build constructs the subtree over entries[lo:hi) and returns its node
// index. The recursion is deterministic: the split dimension is the widest
// normalized bound extent (lowest dimension on ties) and entries are ordered
// by a total comparator, so the tree shape depends only on the entry set.
func (b *refBuilder) build(lo, hi int) int32 {
	n := refNode{left: -1, right: -1, lo: int32(lo), hi: int32(hi)}
	n.bound = refCloneBox(b.entries[lo].box)
	n.hist = make([]float64, b.schema.SensitiveDomain())
	for i := lo; i < hi; i++ {
		e := &b.entries[i]
		for j := range n.bound.Lo {
			if e.box.Lo[j] < n.bound.Lo[j] {
				n.bound.Lo[j] = e.box.Lo[j]
			}
			if e.box.Hi[j] > n.bound.Hi[j] {
				n.bound.Hi[j] = e.box.Hi[j]
			}
		}
		n.g += e.g
		for _, vw := range e.vals {
			n.hist[vw.code] += vw.w
		}
	}
	n.pref = make([]float64, len(n.hist)+1)
	for y, h := range n.hist {
		n.pref[y+1] = n.pref[y] + h
	}
	if hi-lo > indexLeafSize {
		dim := widestDim(b.schema, n.bound)
		ents := b.entries[lo:hi]
		sort.Slice(ents, func(a, c int) bool { return refLessByCenter(&ents[a].box, &ents[c].box, dim) })
		mid := (lo + hi) / 2
		// Children are built before the parent is appended, so parent indices
		// are always larger than their children's — the slice order itself is
		// a valid bottom-up evaluation order.
		n.left = b.build(lo, mid)
		n.right = b.build(mid, hi)
		n.lo, n.hi = 0, 0
	}
	b.nodes = append(b.nodes, n)
	return int32(len(b.nodes) - 1)
}

func refCloneBox(b generalize.Box) generalize.Box {
	return generalize.Box{
		Lo: append([]int32(nil), b.Lo...),
		Hi: append([]int32(nil), b.Hi...),
	}
}

func refBuildGrids(ix *Index) ([]pairGrid, []float64) {
	d := ix.schema.D()
	dom := ix.schema.SensitiveDomain()
	if d < 2 {
		return nil, nil
	}
	pairs, sizes, total := gridLayout(ix.schema)
	if total > gridCellBudget {
		return nil, nil
	}
	backing := make([]float64, total)
	grids := make([]pairGrid, 0, len(pairs))
	off := 0
	for i, p := range pairs {
		grids = append(grids, refBuildPair(ix, p[0], p[1], dom, backing[off:off+sizes[i]:off+sizes[i]]))
		off += sizes[i]
	}
	return grids, backing
}

func refBuildPair(ix *Index, a, b, dom int, sat []float64) pairGrid {
	sa, sb := ix.schema.QI[a].Size(), ix.schema.QI[b].Size()
	du, dv := sa+1, sb+1
	// diff[u][v][y], y fastest, unpadded in y.
	diff := make([]float64, du*dv*dom)
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
	ubases := make([]int, 0, dv*dom)
	for v := 0; v < dv; v++ {
		for y := 0; y < dom; y++ {
			ubases = append(ubases, v*dom+y)
		}
	}
	neumaierAxis(diff, ubases, dv*dom, du)
	vbases := make([]int, 0, du*dom)
	for u := 0; u < du; u++ {
		for y := 0; y < dom; y++ {
			vbases = append(vbases, u*dv*dom+y)
		}
	}
	neumaierAxis(diff, vbases, dom, dv)
	// Cumulate the density into the padded summed-area table.
	dy := dom + 1
	g := pairGrid{a: a, b: b, dv: dv, dy: dy, sat: sat}
	for u := 0; u < sa; u++ {
		for v := 0; v < sb; v++ {
			src := (u*dv + v) * dom
			dst := ((u+1)*dv + (v + 1)) * dy
			copy(g.sat[dst+1:dst+dy], diff[src:src+dom])
		}
	}
	satUBases := make([]int, 0, dv*dy)
	for v := 0; v < dv; v++ {
		for y := 0; y < dy; y++ {
			satUBases = append(satUBases, v*dy+y)
		}
	}
	neumaierAxis(g.sat, satUBases, dv*dy, du)
	satVBases := make([]int, 0, du*dy)
	for u := 0; u < du; u++ {
		for y := 0; y < dy; y++ {
			satVBases = append(satVBases, u*dv*dy+y)
		}
	}
	neumaierAxis(g.sat, satVBases, dy, dv)
	satYBases := make([]int, 0, du*dv)
	for u := 0; u < du; u++ {
		for v := 0; v < dv; v++ {
			satYBases = append(satYBases, (u*dv+v)*dy)
		}
	}
	neumaierAxis(g.sat, satYBases, 1, dy)
	return g
}

func refLessByCenter(a, b *generalize.Box, dim int) bool {
	ca, cb := a.Lo[dim]+a.Hi[dim], b.Lo[dim]+b.Hi[dim]
	if ca != cb {
		return ca < cb
	}
	for j := range a.Lo {
		if a.Lo[j] != b.Lo[j] {
			return a.Lo[j] < b.Lo[j]
		}
		if a.Hi[j] != b.Hi[j] {
			return a.Hi[j] < b.Hi[j]
		}
	}
	return false
}

// partsEqual reports the first field where two frozen indexes differ; floats
// compare bit for bit.
func partsEqual(a, b IndexParts) error {
	if math.Float64bits(a.P) != math.Float64bits(b.P) || a.Root != b.Root {
		return fmt.Errorf("header: p %v/%v root %d/%d", a.P, b.P, a.Root, b.Root)
	}
	ints := []struct {
		name string
		x, y []int32
	}{
		{"EntLo", a.EntLo, b.EntLo}, {"EntHi", a.EntHi, b.EntHi}, {"ValOff", a.ValOff, b.ValOff},
		{"ValCode", a.ValCode, b.ValCode}, {"NodeLo", a.NodeLo, b.NodeLo}, {"NodeHi", a.NodeHi, b.NodeHi},
		{"NodeLeft", a.NodeLeft, b.NodeLeft}, {"NodeRight", a.NodeRight, b.NodeRight},
		{"NodeELo", a.NodeELo, b.NodeELo}, {"NodeEHi", a.NodeEHi, b.NodeEHi},
	}
	for _, f := range ints {
		if !slices.Equal(f.x, f.y) {
			return fmt.Errorf("%s differs", f.name)
		}
	}
	floats := []struct {
		name string
		x, y []float64
	}{
		{"EntG", a.EntG, b.EntG}, {"ValW", a.ValW, b.ValW}, {"NodeG", a.NodeG, b.NodeG},
		{"NodeHist", a.NodeHist, b.NodeHist}, {"NodePref", a.NodePref, b.NodePref}, {"GridSat", a.GridSat, b.GridSat},
	}
	for _, f := range floats {
		if !slices.EqualFunc(f.x, f.y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }) {
			return fmt.Errorf("%s differs", f.name)
		}
	}
	return nil
}

// refPublications publishes small tables whose index builds cover the
// builder's edge cases: SAL under every algorithm at sizes from a handful of
// boxes (n ≤ indexLeafSize: the root is a leaf) to a few thousand, and a
// three-attribute table over tiny domains, where many boxes share a center
// along every dimension and the lexicographic tie-break decides the order.
func refPublications(t *testing.T) map[string]*pg.Published {
	t.Helper()
	pubs := make(map[string]*pg.Published)
	for _, n := range []int{0, 7, 40, 300, 3000} {
		d, err := sal.Generate(max(n, 1), int64(n)+3)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
			k := 6
			if n < 40 {
				k = max(n, 1)
			}
			pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: k, P: 0.3, Algorithm: alg, Seed: int64(n) + 5})
			if err != nil {
				t.Fatalf("sal n=%d %v: %v", n, alg, err)
			}
			pubs[fmt.Sprintf("sal-%d-%v", n, alg)] = pub
		}
	}
	// Enough kd boxes (over spawnMin) that the top levels of the tree are
	// built on separate goroutines when GOMAXPROCS allows it.
	d, err := sal.Generate(40000, 43)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Algorithm: pg.KD, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(pub.Aggregates()); n < 2*spawnMin {
		t.Fatalf("sal-40000-kd has %d boxes; the parallel build needs at least %d", n, 2*spawnMin)
	}
	pubs["sal-40000-kd"] = pub
	s := dataset.MustSchema([]*dataset.Attribute{
		dataset.MustIntAttribute("A", 0, 3),
		dataset.MustIntAttribute("B", 0, 3),
		dataset.MustIntAttribute("C", 0, 1),
	}, dataset.MustAttribute("S", "s0", "s1", "s2"))
	hiers := []*hierarchy.Hierarchy{hierarchy.MustInterval(4, 2), hierarchy.MustInterval(4, 2), hierarchy.MustBalanced(2, 2)}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		d := dataset.NewTable(s)
		for i := 0; i < 50+rng.Intn(400); i++ {
			d.MustAppend([]int32{int32(rng.Intn(4)), int32(rng.Intn(4)), int32(rng.Intn(2)), int32(rng.Intn(3))})
		}
		for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
			pub, err := pg.Publish(d, hiers, pg.Config{K: 1 + rng.Intn(3), P: 0.5, Algorithm: alg, Seed: int64(trial)})
			if err != nil {
				t.Fatalf("tiny %d %v: %v", trial, alg, err)
			}
			pubs[fmt.Sprintf("tiny-%d-%v", trial, alg)] = pub
		}
	}
	return pubs
}

// TestIndexBuildMatchesReference pins the selection-based builder, its
// concurrent subtree build and the parallel pair tables to the sort-based
// serial builder they replaced: every frozen array equal, floats bit for
// bit, at GOMAXPROCS 1, 2 and 4.
func TestIndexBuildMatchesReference(t *testing.T) {
	pubs := refPublications(t)
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for name, pub := range pubs {
			ix, err := NewIndex(pub)
			if err != nil {
				t.Fatal(err)
			}
			if err := partsEqual(ix.Parts(), refIndex(pub).Parts()); err != nil {
				t.Errorf("%s at GOMAXPROCS %d: %v", name, procs, err)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRankEntriesMatchesReference checks the packed radix rank against the
// comparator sort it replaced — Lo then Hi per dimension, then publication
// order — on random boxes over schemas of every lane width (8, 16 and 32
// bits) and of one to nine attributes, so boxes span one to several words
// and the last word may be partly empty. Boxes repeat, so equal keys must
// keep publication order.
func TestRankEntriesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		d := 1 + rng.Intn(9)
		widest := []int{200, 3000, 70000}[trial%3]
		attrs := make([]*dataset.Attribute, d)
		for j := range attrs {
			size := 1 + rng.Intn(12)
			if j == trial%d {
				size = widest
			}
			attrs[j] = dataset.MustIntAttribute(fmt.Sprintf("A%d", j), 0, size-1)
		}
		s := dataset.MustSchema(attrs, dataset.MustAttribute("S", "s0", "s1"))
		aggs := make([]pg.BoxAggregate, rng.Intn(400))
		for i := range aggs {
			if i > 0 && rng.Intn(5) == 0 {
				aggs[i].Box = aggs[rng.Intn(i)].Box
				continue
			}
			box := generalize.Box{Lo: make([]int32, d), Hi: make([]int32, d)}
			for j, a := range attrs {
				lo, hi := rng.Intn(a.Size()), rng.Intn(a.Size())
				box.Lo[j], box.Hi[j] = int32(min(lo, hi)), int32(max(lo, hi))
			}
			aggs[i].Box = box
		}
		want := make([]int32, len(aggs))
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortStableFunc(want, func(x, y int32) int {
			bx, by := aggs[x].Box, aggs[y].Box
			for j := 0; j < d; j++ {
				if bx.Lo[j] != by.Lo[j] {
					return int(bx.Lo[j]) - int(by.Lo[j])
				}
				if bx.Hi[j] != by.Hi[j] {
					return int(bx.Hi[j]) - int(by.Hi[j])
				}
			}
			return 0
		})
		if got := rankEntries(s, aggs); !slices.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, widest domain %d): rank differs from the comparator sort", trial, d, widest)
		}
	}
}

// TestSelectKth checks the quickselect against a full sort on random and
// presorted keys.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(50))<<32 | uint64(i)
		}
		if trial%3 == 0 {
			slices.Sort(keys)
		}
		if trial%3 == 1 {
			slices.Sort(keys)
			slices.Reverse(keys)
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		k := rng.Intn(n)
		selectKth(keys, k)
		if keys[k] != want[k] {
			t.Fatalf("trial %d: keys[%d] = %x, want %x", trial, k, keys[k], want[k])
		}
		got := slices.Clone(keys[:k])
		slices.Sort(got)
		if !slices.Equal(got, want[:k]) {
			t.Fatalf("trial %d: prefix is not the %d smallest keys", trial, k)
		}
	}
}

// neumaierAxis prefix-sums buf along one axis with Neumaier compensation,
// keeping per-cell rounding error at a few ulps regardless of chain length —
// the grid's answers must stay within the 1e-9 scan-equivalence tolerance
// even at the far corner of the table.
//
// The axis is described by its stride and extent; outer iterates the
// product of the remaining extents via base offsets.
func neumaierAxis(buf []float64, bases []int, stride, extent int) {
	for _, base := range bases {
		sum, comp := 0.0, 0.0
		for i := 0; i < extent; i++ {
			x := buf[base+i*stride]
			t := sum + x
			if math.Abs(sum) >= math.Abs(x) {
				comp += (sum - t) + x
			} else {
				comp += (x - t) + sum
			}
			sum = t
			buf[base+i*stride] = sum + comp
		}
	}
}
