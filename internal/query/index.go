package query

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/obs"
	"pgpub/internal/par"
	"pgpub/internal/pg"
)

// This file is the structure half of the query-serving engine: a precomputed
// Index over an immutable publication that answers aggregate queries in time
// proportional to the boxes *intersecting* the query region rather than to
// |D*|. The serving half (Count/Naive/AvgParts and the batched AnswerWorkload)
// lives in serve.go; the scan-based estimators in query.go/aggregate.go stay
// as the reference implementation the index is tested against.
//
// Layout. The |D*| rows are first collapsed into one entry per distinct QI
// box (pg.Published.Aggregates): box bounds, total weight ΣG, and a sparse
// G-weighted histogram of observed sensitive values. Rows sharing a box share
// a volume fraction for every query, so the per-row mask branch of the scan
// path becomes a histogram dot product. Over the entries sits a static
// bounding-box kd-tree in the style of generalize/kd.go's median recursion:
// each node stores the bounding box of its subtree plus two pre-aggregates —
// the subtree ΣG and the subtree's dense sensitive histogram. A traversal
// classifies a node against the query region: disjoint subtrees are skipped
// entirely, fully-contained subtrees are answered O(1)/O(|U^s|) from the
// pre-aggregates (every box inside has volume fraction 1), and only boxes
// straddling the region boundary pay the per-entry volumeFraction work.
//
// Representation. The serving paths run on a struct-of-arrays form: dim-major
// box bound arrays, a CSR layout for the sparse per-entry histograms, and
// flat per-node histogram/prefix blocks. The SoA form is both the cache
// layout (a traversal touches a handful of contiguous streams instead of a
// pointer-rich node heap) and the wire layout: IndexParts exposes the raw
// slices for snapshotting, and NewIndexFromParts rebuilds a serving index
// around them — including zero-copy around mmap'd file pages. Construction
// (indexBuilder) orders a permutation of entry keys and writes every node
// straight into those arrays.

// indexLeafSize bounds the entries a leaf holds before it is split. Small
// leaves sharpen pruning; 8 keeps the tree shallow enough that node overhead
// stays negligible.
const indexLeafSize = 8

// maxIndexHeight bounds the levels of a tree NewIndexFromParts accepts. The
// builder's median split over fewer than 2^31 entries, indexLeafSize to a
// leaf, is at most 29 levels high.
const maxIndexHeight = 64

// Index is a precomputed query-serving structure over one publication. It is
// immutable after construction and safe for concurrent use — AnswerWorkload
// fans queries across workers over a shared Index.
type Index struct {
	schema *dataset.Schema
	p      float64

	// Frozen entry SoA. Boxes are dim-major: entLo[j*nE+i] is entry i's lower
	// bound along QI dimension j, so a sweep over all entries along one
	// dimension (the grid builder, a leaf's volume-fraction pass) reads one
	// contiguous stream per restricted dimension.
	nE           int
	entLo, entHi []int32
	entG         []float64
	// CSR layout of the sparse per-entry histograms: entry i's bins are
	// valCode/valW[valOff[i]:valOff[i+1]].
	valOff, valCode []int32
	valW            []float64

	// Frozen node SoA, same dim-major bound layout. Node i's dense histogram
	// is nodeHist[i*dom:(i+1)*dom], its prefix block nodePref[i*(dom+1):].
	nodeLo, nodeHi      []int32
	nodeG               []float64
	nodeHist, nodePref  []float64
	nodeLeft, nodeRight []int32
	nodeELo, nodeEHi    []int32
	root                int32

	// Global aggregates serving full-domain queries exactly.
	totalG float64
	hist   []float64 // dense G-weighted sensitive histogram over all entries
	pref   []float64 // prefix sums of hist
	// The interval-grid layer (grid.go): per-dim-pair summed-area tables
	// serving queries that restrict at most two attributes in O(1). nil when
	// the schema's pair tables would exceed gridCellBudget. All tables share
	// the single gridSat backing array (the serialized form).
	grids   []pairGrid
	gridSat []float64
	pairIdx []int // pairIdx[a*d+b] → grids index, for a < b
	partner []int // partner[a] = smallest other dim, pairing 1-dim queries
	tinyB   float64

	// met holds the serving-path instruments, wired by Observe.
	// Every query increments exactly one of the three answer-path counters,
	// so their sum equals the queries gathered and the split is invariant
	// under AnswerWorkload's worker count. All fields are nil — disabled —
	// for an index built with NewIndex.
	met struct {
		grid     *obs.Counter   // answered O(1) from an interval-grid SAT
		reanswer *obs.Counter   // grid declined (answer below tinyB), re-answered exactly through the tree
		kd       *obs.Counter   // answered by the kd traversal (wide shape or grid-less schema)
		latency  *obs.Histogram // per-Count wall clock, ns
	}
}

// NewIndex builds the serving index from a publication. Construction is
// O(#boxes · log #boxes) and performed once per release; the publication is
// not retained. Equivalent to NewIndexObserved(pub, nil).
//
// An empty publication (zero rows) yields a valid index over zero boxes:
// every region weight is 0, so Count and Sum answer 0 for every query,
// Naive answers 0, and Avg returns its "region estimated empty" error —
// the same answers the scan estimators give on an empty release.
func NewIndex(pub *pg.Published) (*Index, error) { return NewIndexObserved(pub, nil) }

// NewIndexObserved is NewIndex with instrumentation: construction is timed
// into the query.index.build histogram, the built structure's size lands in
// the query.index.* gauges, and the returned index counts every served query
// by answer path (query.answered.*) and records Count latency
// (query.count.latency). A nil registry disables all of it — the index then
// behaves exactly like NewIndex's.
func NewIndexObserved(pub *pg.Published, reg *obs.Registry) (*Index, error) {
	sp := reg.Span("query.index.build")
	ix, err := newIndex(pub)
	if err != nil {
		return nil, err
	}
	sp.End()
	Observe(reg, ix)
	return ix, nil
}

// Observe wires the serving-path instruments of the indexes that serve one
// release into reg — a single index, or the shards of a sharded group: the
// query.index.* size gauges take their total sizes, and every query each of
// them answers counts in query.answered.* and records Count latency in
// query.count.latency. Call it before the indexes serve — typically once,
// on indexes adopted from snapshots (NewIndexObserved calls it on the index
// it builds). A nil registry disables the instruments.
func Observe(reg *obs.Registry, ixs ...*Index) {
	var entries, nodes, grids int
	for _, ix := range ixs {
		entries += ix.nE
		nodes += len(ix.nodeG)
		grids += len(ix.grids)
		ix.met.grid = reg.Counter("query.answered.grid")
		ix.met.reanswer = reg.Counter("query.answered.exact_reanswer")
		ix.met.kd = reg.Counter("query.answered.kd")
		ix.met.latency = reg.Histogram("query.count.latency", "ns")
	}
	reg.Gauge("query.index.entries").Set(int64(entries))
	reg.Gauge("query.index.nodes").Set(int64(nodes))
	reg.Gauge("query.index.grids").Set(int64(grids))
}

func newIndex(pub *pg.Published) (*Index, error) {
	if pub == nil || pub.Schema == nil {
		return nil, fmt.Errorf("query: index needs a publication with a schema")
	}
	aggs := pub.Aggregates()
	ix := &Index{
		schema: pub.Schema,
		p:      pub.P,
		root:   -1,
	}
	b := newIndexBuilder(ix, aggs)
	ix.root = b.buildTree()
	b.freezeEntries()
	ix.finish()
	ix.grids, ix.gridSat = ix.buildGrids()
	ix.wireGrids()
	return ix, nil
}

// finish computes the derived global aggregates from the frozen entries: the
// exact full-domain weight and histogram, its prefix sums, and the grid
// re-answer threshold. Iteration order matches the pre-freeze code (entries
// ascending, bins ascending), so the sums are bit-identical.
func (ix *Index) finish() {
	ix.hist = make([]float64, ix.schema.SensitiveDomain())
	for i := 0; i < ix.nE; i++ {
		ix.totalG += ix.entG[i]
		for o := ix.valOff[i]; o < ix.valOff[i+1]; o++ {
			ix.hist[ix.valCode[o]] += ix.valW[o]
		}
	}
	ix.pref = make([]float64, len(ix.hist)+1)
	for y, h := range ix.hist {
		ix.pref[y+1] = ix.pref[y] + h
	}
	// A grid answer below tinyB cannot be told apart from the cancellation
	// noise of an empty region, so gather re-answers it through the tree.
	ix.tinyB = 1e-9 * (1 + ix.totalG)
}

// wireGrids builds the pair-lookup tables over the grid layer.
func (ix *Index) wireGrids() {
	if ix.grids == nil {
		return
	}
	d := ix.schema.D()
	ix.pairIdx = make([]int, d*d)
	for gi := range ix.grids {
		g := &ix.grids[gi]
		ix.pairIdx[g.a*d+g.b] = gi
	}
	ix.partner = make([]int, d)
	for a := 0; a < d; a++ {
		best := -1
		for b := 0; b < d; b++ {
			if b == a {
				continue
			}
			if best < 0 || ix.schema.QI[b].Size() < ix.schema.QI[best].Size() {
				best = b
			}
		}
		ix.partner[a] = best
	}
}

// Groups returns the number of distinct QI boxes the index serves from.
func (ix *Index) Groups() int { return ix.nE }

// Schema returns the publication schema the index serves. Consumers that
// hold only the index — the network serving layer parses attribute names and
// validates sensitive codes against it — need no back-reference to the
// publication, which the index deliberately does not retain.
func (ix *Index) Schema() *dataset.Schema { return ix.schema }

// P returns the release's retention probability, announced publication
// metadata the estimators invert perturbation with.
func (ix *Index) P() float64 { return ix.p }

// indexBuilder orders the entries into the kd-tree and writes the tree's
// nodes into the index's frozen arrays.
//
// Every internal node splits its entries at the middle of the center order
// along its widest dimension: box center along the dimension, then Lo and
// Hi lexicographically across all dimensions. Boxes of one publication are
// pairwise disjoint (Property G3), so no two entries tie. The tree is the
// one a full sort per level would build, but only the split matters to an
// internal node — its bound, ΣG and histogram are exact integer sums and
// minima/maxima, independent of the entry order — so the builder partitions
// each internal node by selection and fully sorts only the leaf ranges,
// whose order is stored. Entries are ranked once by the lexicographic
// tie-break (rankEntries), so along a split dimension an entry's sort key
// is one uint64: center<<32 | rank.
//
// The node shape depends on the entry count alone, so the node arrays are
// allocated up front and every node's number is fixed before it is built:
// the subtree over n entries takes countNodes(n) consecutive numbers in
// post order (left subtree, right subtree, then the node), so children are
// written before their parent and the frozen order is a valid bottom-up
// evaluation order. That lets the top levels build their two subtrees on
// separate goroutines: the subtrees own disjoint position ranges of ids and
// keys and disjoint node numbers, and each has its own bound scratch.
type indexBuilder struct {
	ix *Index
	d  int
	// The entries by lexicographic rank: dim-major bounds, ΣG, and the
	// sparse histograms in CSR form (rank r's bins are valCode/valW[
	// valOff[r]:valOff[r+1]]). The aggregates' dense per-entry histograms
	// are most of their memory, so they are dropped before the node arrays
	// are allocated.
	lo, hi          []int32
	g               []float64
	valOff, valCode []int32
	valW            []float64
	// ids is the entry order under construction, as ranks, starting from
	// the publication's order (which a root leaf keeps); keys is the sort
	// key scratch over the same positions.
	ids  []uint32
	keys []uint64
}

// subtreeBuild is one goroutine's share of the tree build: its bound
// scratch and the next node number it assigns.
type subtreeBuild struct {
	box  generalize.Box
	next int32
}

// spawnMin is the smallest subtree, in entries, whose two halves are built
// on separate goroutines; below it a goroutine costs more than it saves.
const spawnMin = 2048

func newIndexBuilder(ix *Index, aggs []pg.BoxAggregate) *indexBuilder {
	d, nE := ix.schema.D(), len(aggs)
	b := &indexBuilder{ix: ix, d: d}
	byRank := rankEntries(ix.schema, aggs)
	b.lo, b.hi = make([]int32, d*nE), make([]int32, d*nE)
	b.g = make([]float64, nE)
	b.valOff = make([]int32, nE+1)
	b.ids = make([]uint32, nE)
	for r, a := range byRank {
		agg := &aggs[a]
		for j := 0; j < d; j++ {
			b.lo[j*nE+r] = agg.Box.Lo[j]
			b.hi[j*nE+r] = agg.Box.Hi[j]
		}
		b.g[r] = float64(agg.G)
		for code, w := range agg.Hist {
			if w != 0 {
				b.valCode = append(b.valCode, int32(code))
				b.valW = append(b.valW, float64(w))
			}
		}
		b.valOff[r+1] = int32(len(b.valCode))
		b.ids[a] = uint32(r)
	}
	b.keys = make([]uint64, nE)

	nN := countNodes(nE)
	dom := ix.schema.SensitiveDomain()
	ix.nodeLo = make([]int32, d*nN)
	ix.nodeHi = make([]int32, d*nN)
	ix.nodeG = make([]float64, nN)
	ix.nodeHist = make([]float64, nN*dom)
	ix.nodePref = make([]float64, nN*(dom+1))
	ix.nodeLeft = make([]int32, nN)
	ix.nodeRight = make([]int32, nN)
	ix.nodeELo = make([]int32, nN)
	ix.nodeEHi = make([]int32, nN)
	return b
}

// rankEntries returns the aggregates' indices in lexicographic box order:
// Lo then Hi of dimension 0, then of dimension 1, and so on. Each box is
// packed into lanes of the width kd's packed rows use (LaneWidth), its
// first bound in the top lane of its first word, so comparing the words in
// turn as unsigned integers compares the boxes lexicographically, and the
// sort is a radix sort over the words instead of a comparator chasing each
// box's bound slices.
func rankEntries(s *dataset.Schema, aggs []pg.BoxAggregate) []int32 {
	d, nE := s.D(), len(aggs)
	lane := generalize.LaneWidth(s)
	per := int(64 / lane)
	wpr := max(1, (2*d+per-1)/per) // words per box
	words := make([]uint64, nE*wpr)
	for a := range aggs {
		row, box := words[a*wpr:(a+1)*wpr], &aggs[a].Box
		w, shift := 0, 64-lane
		for j := 0; j < d; j++ {
			row[w] |= uint64(uint32(box.Lo[j])) << shift
			w, shift = nextLane(w, shift, lane)
			row[w] |= uint64(uint32(box.Hi[j])) << shift
			w, shift = nextLane(w, shift, lane)
		}
	}
	// LSD radix sort, one byte a pass from the last word's lowest byte up.
	// Every pass is stable, so the order is lexicographic over the words
	// and boxes with equal words keep their publication order. The word a
	// pass reads is gathered next to the permutation first, so the passes
	// stream; a pass whose byte is the same for every entry is skipped.
	byRank, perm := make([]int32, nE), make([]int32, nE)
	for i := range byRank {
		byRank[i] = int32(i)
	}
	keys, tmp := make([]uint64, nE), make([]uint64, nE)
	var count [257]int
	for w := wpr - 1; w >= 0 && nE > 0; w-- {
		for i, a := range byRank {
			keys[i] = words[int(a)*wpr+w]
		}
		for shift := uint(0); shift < 64; shift += 8 {
			clear(count[:])
			for _, k := range keys {
				count[k>>shift&0xff+1]++
			}
			if count[keys[0]>>shift&0xff+1] == nE {
				continue
			}
			for c := 1; c < len(count); c++ {
				count[c] += count[c-1]
			}
			for i, k := range keys {
				c := k >> shift & 0xff
				tmp[count[c]], perm[count[c]] = k, byRank[i]
				count[c]++
			}
			keys, tmp = tmp, keys
			byRank, perm = perm, byRank
		}
	}
	return byRank
}

// nextLane steps a packing cursor (word w, bit shift) to the next lane.
func nextLane(w int, shift, lane uint) (int, uint) {
	if shift < lane {
		return w + 1, 64 - lane
	}
	return w, shift - lane
}

// countNodes is the node count of the tree over n entries: a leaf holds at
// most indexLeafSize entries, and an internal node splits at the middle.
func countNodes(n int) int {
	if n == 0 {
		return 0
	}
	if n <= indexLeafSize {
		return 1
	}
	return 1 + countNodes(n/2) + countNodes(n-n/2)
}

// buildTree builds the whole tree and returns the root's node number (-1
// over zero entries). The top par.SpawnDepth(GOMAXPROCS) levels build their
// subtrees concurrently.
func (b *indexBuilder) buildTree() int32 {
	n := len(b.ids)
	if n == 0 {
		return -1
	}
	return b.build(b.newSubtree(0), 0, n, -1, par.SpawnDepth(par.N(0)))
}

func (b *indexBuilder) newSubtree(next int32) *subtreeBuild {
	return &subtreeBuild{box: generalize.Box{Lo: make([]int32, b.d), Hi: make([]int32, b.d)}, next: next}
}

// build constructs the subtree over positions [lo, hi) and returns its node
// number, numbering the subtree's nodes from st.next on. parentDim is the
// split dimension of the parent (-1 at the root): a leaf's entries are
// stored in the parent's center order. The recursion is deterministic: the
// split dimension is the widest normalized bound extent (lowest dimension
// on ties) and the keys are distinct, so the tree depends only on the
// entry set. While spawn is positive, the right subtree is built on a new
// goroutine, starting at the node number the left subtree's size fixes.
func (b *indexBuilder) build(st *subtreeBuild, lo, hi, parentDim, spawn int) int32 {
	ix := b.ix
	if hi-lo <= indexLeafSize {
		if parentDim >= 0 {
			b.order(lo, hi, parentDim)
			slices.Sort(b.keys[lo:hi])
			b.unkey(lo, hi)
		}
		ni := st.next
		st.next++
		b.bound(st.box, lo, hi)
		b.setBound(ni, st.box.Lo, st.box.Hi)
		ix.nodeLeft[ni], ix.nodeRight[ni] = -1, -1
		ix.nodeELo[ni], ix.nodeEHi[ni] = int32(lo), int32(hi)
		dom := ix.schema.SensitiveDomain()
		hist := ix.nodeHist[int(ni)*dom : (int(ni)+1)*dom]
		for _, r := range b.ids[lo:hi] {
			ix.nodeG[ni] += b.g[r]
			for o := b.valOff[r]; o < b.valOff[r+1]; o++ {
				hist[b.valCode[o]] += b.valW[o]
			}
		}
		b.prefix(ni)
		return ni
	}
	b.bound(st.box, lo, hi)
	dim := widestDim(ix.schema, st.box)
	mid := (lo + hi) / 2
	b.order(lo, hi, dim)
	selectKth(b.keys[lo:hi], mid-lo)
	b.unkey(lo, hi)
	var left, right int32
	if spawn > 0 && hi-lo >= spawnMin {
		left, right = b.buildHalves(st, lo, mid, hi, dim, spawn-1)
	} else {
		left = b.build(st, lo, mid, dim, 0)
		right = b.build(st, mid, hi, dim, 0)
	}
	ni := st.next
	st.next++
	nN := len(ix.nodeG)
	for j := 0; j < b.d; j++ {
		o := j * nN
		st.box.Lo[j] = min(ix.nodeLo[o+int(left)], ix.nodeLo[o+int(right)])
		st.box.Hi[j] = max(ix.nodeHi[o+int(left)], ix.nodeHi[o+int(right)])
	}
	b.setBound(ni, st.box.Lo, st.box.Hi)
	ix.nodeLeft[ni], ix.nodeRight[ni] = left, right
	ix.nodeG[ni] = ix.nodeG[left] + ix.nodeG[right]
	dom := ix.schema.SensitiveDomain()
	hist := ix.nodeHist[int(ni)*dom : (int(ni)+1)*dom]
	lh := ix.nodeHist[int(left)*dom : (int(left)+1)*dom]
	rh := ix.nodeHist[int(right)*dom : (int(right)+1)*dom]
	for y := range hist {
		hist[y] = lh[y] + rh[y]
	}
	b.prefix(ni)
	return ni
}

// buildHalves builds the subtrees over [lo, mid) and [mid, hi) at once, the
// right one on a new goroutine with its own scratch, numbered from where
// the left one's countNodes(mid-lo) nodes end.
func (b *indexBuilder) buildHalves(st *subtreeBuild, lo, mid, hi, dim, spawn int) (left, right int32) {
	rst := b.newSubtree(st.next + int32(countNodes(mid-lo)))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		right = b.build(rst, mid, hi, dim, spawn)
	}()
	left = b.build(st, lo, mid, dim, spawn)
	wg.Wait()
	st.next = rst.next
	return left, right
}

// bound writes the bounding box of the entries at positions [lo, hi) into
// box.
func (b *indexBuilder) bound(box generalize.Box, lo, hi int) {
	nE := len(b.ids)
	for j := 0; j < b.d; j++ {
		los, his := b.lo[j*nE:(j+1)*nE], b.hi[j*nE:(j+1)*nE]
		l, h := los[b.ids[lo]], his[b.ids[lo]]
		for _, r := range b.ids[lo+1 : hi] {
			l, h = min(l, los[r]), max(h, his[r])
		}
		box.Lo[j], box.Hi[j] = l, h
	}
}

// setBound writes node ni's bounding box.
func (b *indexBuilder) setBound(ni int32, lo, hi []int32) {
	nN := len(b.ix.nodeG)
	for j := 0; j < b.d; j++ {
		b.ix.nodeLo[j*nN+int(ni)] = lo[j]
		b.ix.nodeHi[j*nN+int(ni)] = hi[j]
	}
}

// prefix fills node ni's prefix block from its histogram.
func (b *indexBuilder) prefix(ni int32) {
	dom := b.ix.schema.SensitiveDomain()
	hist := b.ix.nodeHist[int(ni)*dom : (int(ni)+1)*dom]
	pref := b.ix.nodePref[int(ni)*(dom+1) : (int(ni)+1)*(dom+1)]
	for y, h := range hist {
		pref[y+1] = pref[y] + h
	}
}

// order writes the center-order keys along dim of positions [lo, hi): the
// box center (Lo+Hi, never negative) above the lexicographic rank.
func (b *indexBuilder) order(lo, hi, dim int) {
	nE := len(b.ids)
	los, his := b.lo[dim*nE:(dim+1)*nE], b.hi[dim*nE:(dim+1)*nE]
	for i, r := range b.ids[lo:hi] {
		b.keys[lo+i] = uint64(los[r]+his[r])<<32 | uint64(r)
	}
}

// unkey reads the entry order of positions [lo, hi) back from the keys.
func (b *indexBuilder) unkey(lo, hi int) {
	for i, k := range b.keys[lo:hi] {
		b.ids[lo+i] = uint32(k)
	}
}

// freezeEntries writes the entry arrays in the built order.
func (b *indexBuilder) freezeEntries() {
	ix := b.ix
	d, nE := b.d, len(b.ids)
	ix.nE = nE
	ix.entLo = make([]int32, d*nE)
	ix.entHi = make([]int32, d*nE)
	ix.entG = make([]float64, nE)
	ix.valOff = make([]int32, nE+1)
	ix.valCode = make([]int32, 0, len(b.valCode))
	ix.valW = make([]float64, 0, len(b.valW))
	for i, r := range b.ids {
		for j := 0; j < d; j++ {
			ix.entLo[j*nE+i] = b.lo[j*nE+int(r)]
			ix.entHi[j*nE+i] = b.hi[j*nE+int(r)]
		}
		ix.entG[i] = b.g[r]
		ix.valCode = append(ix.valCode, b.valCode[b.valOff[r]:b.valOff[r+1]]...)
		ix.valW = append(ix.valW, b.valW[b.valOff[r]:b.valOff[r+1]]...)
		ix.valOff[i+1] = int32(len(ix.valCode))
	}
}

// selectKth reorders distinct keys so that keys[k] holds the value a full
// sort would put there, with every smaller key before it and every larger
// one after it (Hoare quickselect, median-of-three pivots).
func selectKth(keys []uint64, k int) {
	lo, hi := 0, len(keys)-1
	for hi-lo > 16 {
		m := lo + (hi-lo)/2
		if keys[m] < keys[lo] {
			keys[m], keys[lo] = keys[lo], keys[m]
		}
		if keys[hi] < keys[lo] {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if keys[hi] < keys[m] {
			keys[hi], keys[m] = keys[m], keys[hi]
		}
		pivot := keys[m]
		i, j := lo, hi
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(keys[lo : hi+1])
}

// widestDim picks the split dimension: the largest bound extent normalized by
// the attribute's domain size, lowest dimension on ties.
func widestDim(s *dataset.Schema, bound generalize.Box) int {
	dim, best := 0, -1.0
	for j := range bound.Lo {
		size := s.QI[j].Size()
		if size <= 1 {
			continue
		}
		w := float64(bound.Hi[j]-bound.Lo[j]) / float64(size-1)
		if w > best {
			dim, best = j, w
		}
	}
	return dim
}

// Relation of a node bound to a query region.
const (
	relDisjoint = iota
	relPartial
	relContained
)

// activeRange is one query range that actually restricts its attribute. A
// workload query typically restricts 2 of 8 attributes; dims the query
// leaves at the full domain can never exclude a box or shrink its volume
// fraction, so the traversal skips them entirely. Dropping full-domain
// factors is exact: their volume-fraction contribution is the literal 1.0.
type activeRange struct {
	dim    int
	lo, hi int32
}

// activeRanges extracts the restricting dims of a query, in dim order (so
// the volume-fraction product multiplies in the same order as the scan
// path's, for bit-identical partial products).
func (ix *Index) activeRanges(q []Range) []activeRange {
	act := make([]activeRange, 0, len(q))
	for j, r := range q {
		if r.Lo > 0 || int(r.Hi) < ix.schema.QI[j].Size()-1 {
			act = append(act, activeRange{dim: j, lo: r.Lo, hi: r.Hi})
		}
	}
	return act
}

// A cut set names the restricting ranges that cut a node's bound — the
// ranges along which the bound is not inside the query — as a bitmask over
// act: bit k stands for act[k]. A child's bound lies inside its parent's,
// so a range that contains the parent's bound along its dimension contains
// every bound below: the walk hands a node's cut set down, and its children
// test only those ranges. Bit tailBit stands for act[tailBit:] together, so
// a query restricting more than 63 attributes tests that tail wherever one
// of its ranges cuts; a range tested where it does not cut still
// classifies and weights exactly.
const tailBit = 63

// cutAll is the cut set of n ranges: the root's.
func cutAll(n int) uint64 {
	if n > tailBit {
		return ^uint64(0)
	}
	return 1<<n - 1
}

// relateNode classifies node ni's bound against the ranges of the cut set
// its parent handed down, and returns the ranges that cut it. It branches
// once per node, not once per range.
func (ix *Index) relateNode(ni int32, act []activeRange, cut uint64) (rel int, sub uint64) {
	var miss int32 // negative once a range misses the bound
	for m := cut &^ (1 << tailBit); m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		ov, cuts := ix.overlap(ni, &act[k])
		miss |= ov
		var bit uint64
		if cuts {
			bit = 1 << k
		}
		sub |= bit
	}
	if cut>>tailBit != 0 {
		for k := tailBit; k < len(act); k++ {
			ov, cuts := ix.overlap(ni, &act[k])
			miss |= ov
			if cuts {
				sub |= 1 << tailBit
			}
		}
	}
	switch {
	case miss < 0:
		return relDisjoint, 0
	case sub == 0:
		return relContained, 0
	}
	return relPartial, sub
}

// overlap measures node ni's bound [lo, hi] against r along r's
// dimension: ov is the overlap's width less one, negative when the two are
// disjoint, and cuts reports that the bound is not inside r.
func (ix *Index) overlap(ni int32, r *activeRange) (ov int32, cuts bool) {
	o := r.dim*len(ix.nodeG) + int(ni)
	lo, hi := ix.nodeLo[o], ix.nodeHi[o]
	ov = min(hi, r.hi) - max(lo, r.lo)
	return ov, ov != hi-lo
}

// valuer is the per-sensitive-value weighting a traversal applies: nothing
// (count the region weight only), a contiguous 0/1 band (answered from the
// prefix sums), or a general dense weight vector (mask with holes, or
// SUM's value map).
type valuer struct {
	wv     []float64 // dense weights; nil when no value-weighted sum is needed
	band   bool      // wv is a 0/1 indicator of the contiguous band [lo, hi]
	lo, hi int32
}

// walk adds the two sums every estimator is built from over the subtree at
// ni to the running sums a and b, and returns them:
//
//	b  += Σ G · volFrac(box, q)                  (the region weight)
//	a  += Σ G · volFrac(box, q) · wv[value]      (the value-weighted part)
//
// cut is the cut set of ni's parent (every range at the root). Disjoint
// subtrees contribute nothing; fully-contained subtrees contribute their
// pre-aggregates (volFrac is 1 for every box inside); only the leaves that
// straddle the region boundary are resolved entry by entry (leaf).
// Traversal order is fixed by the tree and every term is added to the one
// running sum in that order, so a query's answer is bit-identical no matter
// which goroutine computes it.
func (ix *Index) walk(ni int32, act []activeRange, cut uint64, v *valuer, a, b float64) (float64, float64) {
	rel, cut := ix.relateNode(ni, act, cut)
	switch rel {
	case relDisjoint:
		return a, b
	case relContained:
		b += ix.nodeG[ni]
		dom := ix.schema.SensitiveDomain()
		switch {
		case v.wv == nil:
		case v.band:
			pref := ix.nodePref[int(ni)*(dom+1) : (int(ni)+1)*(dom+1)]
			a += pref[v.hi+1] - pref[v.lo]
		default:
			hist := ix.nodeHist[int(ni)*dom : (int(ni)+1)*dom]
			for code, h := range hist {
				if h != 0 {
					a += h * v.wv[code]
				}
			}
		}
		return a, b
	}
	if l := ix.nodeLeft[ni]; l >= 0 {
		a, b = ix.walk(l, act, cut, v, a, b)
		return ix.walk(ix.nodeRight[ni], act, cut, v, a, b)
	}
	return ix.leaf(ni, act, cut, v, a, b)
}

// leaf resolves a partial leaf column by column. Each entry's volume
// fraction is the product, in dimension order, of its factors along the
// ranges that cut the leaf, each computed without a branch as
//
//	max(min(hi, r.hi) − max(lo, r.lo) + 1, 0) / (hi − lo + 1)
//
// over one contiguous bound stream per range; then the leaf's terms are
// added in entry order. That is the per-entry product bit for bit: a range
// that does not cut the leaf contains each entry's bound, whose factor
// there is exactly 1.0, and the factors left multiply in the same order.
// An entry outside the region has a factor +0 and adds G·0 = +0 to b. The
// value-weighted sum skips it, as a value map may hold ±Inf or NaN, whose
// product with 0 is NaN.
func (ix *Index) leaf(ni int32, act []activeRange, cut uint64, v *valuer, a, b float64) (float64, float64) {
	lo := int(ix.nodeELo[ni])
	var scratch [indexLeafSize]float64
	vf := scratch[:int(ix.nodeEHi[ni])-lo]
	for k := range vf {
		vf[k] = 1
	}
	for m := cut &^ (1 << tailBit); m != 0; m &= m - 1 {
		ix.scale(vf, lo, &act[bits.TrailingZeros64(m)])
	}
	if cut>>tailBit != 0 {
		for k := tailBit; k < len(act); k++ {
			ix.scale(vf, lo, &act[k])
		}
	}
	for k, f := range vf {
		i := lo + k
		b += ix.entG[i] * f
		if v.wv != nil && f != 0 {
			for o := ix.valOff[i]; o < ix.valOff[i+1]; o++ {
				a += ix.valW[o] * f * v.wv[ix.valCode[o]]
			}
		}
	}
	return a, b
}

// scale multiplies the volume fractions vf of the entries from lo on by
// their factors along r.
func (ix *Index) scale(vf []float64, lo int, r *activeRange) {
	o := r.dim*ix.nE + lo
	los, his := ix.entLo[o:o+len(vf)], ix.entHi[o:o+len(vf)]
	for k := range vf {
		l, h := los[k], his[k]
		vf[k] *= float64(max(min(h, r.hi)-max(l, r.lo)+1, 0)) / float64(h-l+1)
	}
}

// gather accumulates the two estimator sums for one query: first through the
// O(1) interval-grid layer when the query restricts at most two attributes,
// falling back to the kd traversal for wider shapes, grid-less schemas, and
// near-empty regions (where the grid's cancellation noise cannot certify an
// exact zero). Empty indexes answer (0, 0).
func (ix *Index) gather(q []Range, v *valuer) (a, b float64) {
	act := ix.activeRanges(q)
	if len(act) <= 2 {
		if a, b, ok := ix.gatherGrid(act, v); ok {
			ix.met.grid.Inc()
			return a, b
		}
		if ix.grids != nil && len(act) > 0 {
			// The grid could serve this shape but declined: the answer fell
			// below tinyB, where SAT cancellation noise cannot certify an
			// exact zero, so the tree re-answers it exactly.
			ix.met.reanswer.Inc()
		} else {
			ix.met.kd.Inc()
		}
	} else {
		ix.met.kd.Inc()
	}
	if ix.root >= 0 {
		a, b = ix.walk(ix.root, act, cutAll(len(act)), v, 0, 0)
	}
	return a, b
}
