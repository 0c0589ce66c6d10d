package generalize

// This file is the grouping engine: the allocation-lean primitives every
// Phase-2 algorithm builds its QI-groups with.
//
//   - GroupBy / GroupByWorkers: one-shot grouping of a table under a
//     recoding, with generalized QI vectors packed into a single uint64 hash
//     key whenever the hierarchies' node-ID widths fit (they essentially
//     always do), and the row scan sharded through par for large tables.
//     Shards are fixed-size and merged in shard order, so the result is
//     byte-identical for any worker count — and identical to the
//     byte-keyed reference grouping it replaced.
//
//   - LatticeEvaluator: the roll-up engine behind SearchFullDomain. The
//     table is scanned exactly once, at the lattice's bottom; every other
//     level vector's grouping is derived by lifting the base groups' keys
//     through the hierarchies and merging — O(#groups·d) for a size check,
//     O(n) to materialize rows — instead of re-scanning and re-hashing all
//     n rows per lattice node.
//
// The engine's contract, enforced by TestLatticeRollupMatchesGroupBy and
// TestTDSIncrementalMatchesRescan, is exact equivalence with a from-scratch
// GroupBy: same keys, same row sets, rows ascending within each group, and
// groups in first-appearance order of their first row.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
)

// keyPacker packs a generalized QI vector (one hierarchy node ID per
// attribute) into a uint64. Attribute j gets bits.Len(NumNodes(j)-1) bits, so
// packing is injective whenever the widths sum to at most 64.
type keyPacker struct {
	shift []uint
	mask  []uint64 // mask[j] covers attribute j's field once shifted down
	fits  bool
}

func newKeyPacker(hiers []*hierarchy.Hierarchy) keyPacker {
	p := keyPacker{shift: make([]uint, len(hiers)), mask: make([]uint64, len(hiers))}
	total := uint(0)
	for j, h := range hiers {
		w := uint(bits.Len(uint(h.NumNodes() - 1)))
		if w == 0 {
			w = 1
		}
		p.shift[j] = total
		p.mask[j] = 1<<w - 1
		total += w
	}
	p.fits = total <= 64
	return p
}

// groupShardSize is the fixed shard width of the sharded row scan. It is
// independent of the worker count, so shard-local groupings — and therefore
// the merged result — cannot depend on how many goroutines ran them.
const groupShardSize = 1 << 14

// GroupBy partitions the table under the recoding. Groups appear in
// first-appearance order of their first row, and row indices within a group
// ascend.
func GroupBy(t *dataset.Table, r *Recoding) *Groups {
	return GroupByWorkers(t, r, 1)
}

// GroupByWorkers is GroupBy with the row scan sharded over at most workers
// goroutines (0 means GOMAXPROCS). The result is identical for every worker
// count.
func GroupByWorkers(t *dataset.Table, r *Recoding, workers int) *Groups {
	n := t.Len()
	p := newKeyPacker(r.Hierarchies)
	if !p.fits {
		// Node IDs overflow a uint64 key; fall back to byte-string keys.
		// This needs >64 key bits, i.e. an extravagantly wide QI schema, so
		// the fallback stays sequential.
		return groupByBytes(t, r)
	}
	shards := (n + groupShardSize - 1) / groupShardSize
	if par.N(workers) <= 1 || shards <= 1 {
		part := groupPackedRange(t, r, p, 0, n)
		return &Groups{Keys: part.keys, Rows: part.rows}
	}
	parts := make([]*packedPart, shards)
	par.ForEach(workers, shards, func(s int) {
		lo := s * groupShardSize
		hi := lo + groupShardSize
		if hi > n {
			hi = n
		}
		parts[s] = groupPackedRange(t, r, p, lo, hi)
	})
	// Sequential merge in shard order. Shards cover contiguous ascending row
	// ranges, so first-appearance order and ascending rows are preserved.
	out := &Groups{}
	idx := make(map[uint64]int, 2*len(parts[0].packed))
	for _, part := range parts {
		for li, pk := range part.packed {
			gi, ok := idx[pk]
			if !ok {
				gi = len(out.Keys)
				idx[pk] = gi
				out.Keys = append(out.Keys, part.keys[li])
				out.Rows = append(out.Rows, part.rows[li])
				continue
			}
			out.Rows[gi] = append(out.Rows[gi], part.rows[li]...)
		}
	}
	return out
}

// packedPart is one shard's grouping: parallel slices of packed key, node
// vector, and row list.
type packedPart struct {
	packed []uint64
	keys   [][]int32
	rows   [][]int
}

// groupPackedRange groups rows [lo,hi) of the table. The scan is columnar:
// one cache-linear pass per QI column ORs that attribute's packed cut-node
// contribution into a per-row key buffer (a leaf→node table lookup per
// value, no recoding method calls, no row materialization), then a single
// pass over the finished keys builds the shard-local grouping. The packed
// keys — and therefore the grouping — are exactly what the former row-major
// scan produced.
func groupPackedRange(t *dataset.Table, r *Recoding, p keyPacker, lo, hi int) *packedPart {
	d := t.Schema.D()
	keys := make([]uint64, hi-lo)
	for j := 0; j < d; j++ {
		leafTo := r.Cuts[j].LeafMap()
		col := t.QICol(j)
		if u8 := col.U8(); u8 != nil {
			packColumn(u8[lo:hi], leafTo, p.shift[j], keys)
		} else {
			packColumn(col.I32()[lo:hi], leafTo, p.shift[j], keys)
		}
	}
	idx := make(map[uint64]int32, 64)
	part := &packedPart{}
	for k, pk := range keys {
		gi, ok := idx[pk]
		if !ok {
			gi = int32(len(part.packed))
			idx[pk] = gi
			part.packed = append(part.packed, pk)
			gv := make([]int32, d)
			for j := 0; j < d; j++ {
				gv[j] = r.Cuts[j].Map(t.QI(lo+k, j))
			}
			part.keys = append(part.keys, gv)
			part.rows = append(part.rows, nil)
		}
		part.rows[gi] = append(part.rows[gi], lo+k)
	}
	return part
}

// packColumn ORs one attribute's packed contribution into the key buffer:
// keys[i] |= leafTo[vals[i]] << shift. Generic over the column's element
// width so narrow (byte) columns stream at full cache-line density.
func packColumn[T uint8 | int32](vals []T, leafTo []int32, shift uint, keys []uint64) {
	for i, v := range vals {
		keys[i] |= uint64(uint32(leafTo[v])) << shift
	}
}

// groupByBytes is the byte-keyed fallback for schemas whose packed keys do
// not fit in 64 bits.
func groupByBytes(t *dataset.Table, r *Recoding) *Groups {
	d := t.Schema.D()
	key := make([]byte, 4*d)
	gv := make([]int32, d)
	idx := make(map[string]int, t.Len()/4+1)
	out := &Groups{}
	for i := 0; i < t.Len(); i++ {
		for j := 0; j < d; j++ {
			gv[j] = r.Cuts[j].Map(t.QI(i, j))
		}
		for j, n := range gv {
			binary.LittleEndian.PutUint32(key[4*j:], uint32(n))
		}
		gi, ok := idx[string(key)]
		if !ok {
			gi = len(out.Keys)
			idx[string(key)] = gi
			out.Keys = append(out.Keys, append([]int32(nil), gv...))
			out.Rows = append(out.Rows, nil)
		}
		out.Rows[gi] = append(out.Rows[gi], i)
	}
	return out
}

// LatticeEvaluator evaluates full-domain level vectors by roll-up: the table
// is grouped once at the lattice bottom (every attribute at its leaves), and
// any other vector's grouping is derived by lifting the base groups' keys
// through the hierarchies and merging groups whose lifted keys coincide
// (LeFevre et al.'s frequency-set roll-up, generalized to a whole level
// vector). All hierarchies must be uniform.
//
// Lattice nodes are scored from (packed key, size) pairs alone: the minimum
// group size and the discernibility need no row lists, so only the node a
// search finally returns is materialized by GroupsAt. The scoring reuses one
// hash table and one pair buffer, so an evaluator is not safe for concurrent
// use.
type LatticeEvaluator struct {
	t      *dataset.Table
	hiers  []*hierarchy.Hierarchy
	base   *Groups
	packer keyPacker

	// rowGroup maps each table row to its base group, so materializing a
	// rolled-up grouping's row lists is a single ordered pass over the rows
	// (which also yields ascending rows and first-appearance group order for
	// free — the GroupBy contract).
	rowGroup []int32
	// keyIdx[g][j] is the index of base group g's j-th key node within the
	// leaf cut of attribute j (the row of the lift tables below).
	keyIdx [][]int32
	// lift[j][l][i] is the ancestor l levels above the i-th leaf-cut node of
	// attribute j.
	lift [][][]int32
	// cuts memoizes hierarchy.LevelCut per attribute and level.
	cuts [][]*hierarchy.Cut

	// idx and pairs are the scoring scratch: the packed-key → pair-index
	// table that merges coinciding keys, and the pair buffer scoreAt fills.
	idx   keyTable
	pairs []sizedGroup
}

// sizedGroup is a QI-group reduced to what lattice scoring reads: its packed
// generalized key and its cardinality.
type sizedGroup struct {
	key  uint64
	size int
}

// NewLatticeEvaluator groups the table at the lattice bottom (the
// evaluator's one full scan, sharded over workers) and precomputes the lift
// tables.
func NewLatticeEvaluator(t *dataset.Table, hiers []*hierarchy.Hierarchy, workers int) (*LatticeEvaluator, error) {
	if len(hiers) != t.Schema.D() {
		return nil, fmt.Errorf("generalize: %d hierarchies for %d QI attributes", len(hiers), t.Schema.D())
	}
	if !newKeyPacker(hiers).fits {
		return nil, fmt.Errorf("generalize: QI node IDs need more than 64 key bits; lattice roll-up needs packed keys")
	}
	for j, h := range hiers {
		if !h.Uniform() {
			return nil, fmt.Errorf("generalize: hierarchy %d is not uniform; lattice roll-up needs level cuts", j)
		}
	}
	e := &LatticeEvaluator{
		t:      t,
		hiers:  hiers,
		packer: newKeyPacker(hiers),
		cuts:   make([][]*hierarchy.Cut, len(hiers)),
	}
	for j, h := range hiers {
		e.cuts[j] = make([]*hierarchy.Cut, h.Height()+1)
	}
	rec, err := e.RecodingAt(make([]int, len(hiers)))
	if err != nil {
		return nil, err
	}
	e.base = GroupByWorkers(t, rec, workers)

	e.rowGroup = make([]int32, t.Len())
	for g, rows := range e.base.Rows {
		for _, i := range rows {
			e.rowGroup[i] = int32(g)
		}
	}

	// Lift tables: for each attribute, the leaf-cut nodes and their ancestors
	// at every level.
	e.lift = make([][][]int32, len(hiers))
	nodeIdx := make([][]int32, len(hiers))
	for j, h := range hiers {
		baseNodes := rec.Cuts[j].Nodes()
		nodeIdx[j] = make([]int32, h.NumNodes())
		for i, v := range baseNodes {
			nodeIdx[j][v] = int32(i)
		}
		e.lift[j] = make([][]int32, h.Height()+1)
		cur := append([]int32(nil), baseNodes...)
		for l := range e.lift[j] {
			e.lift[j][l] = append([]int32(nil), cur...)
			for i, v := range cur {
				if p := h.Parent(v); p >= 0 {
					cur[i] = p
				}
			}
		}
	}
	e.keyIdx = make([][]int32, len(e.base.Keys))
	for g, key := range e.base.Keys {
		ki := make([]int32, len(key))
		for j, v := range key {
			ki[j] = nodeIdx[j][v]
		}
		e.keyIdx[g] = ki
	}
	e.idx = newKeyTable(len(e.base.Keys))
	return e, nil
}

// checkLevels validates the level vector against the hierarchy heights.
func (e *LatticeEvaluator) checkLevels(levels []int) error {
	if len(levels) != len(e.hiers) {
		return fmt.Errorf("generalize: level vector has %d components, want %d", len(levels), len(e.hiers))
	}
	for j, l := range levels {
		if l < 0 || l > e.hiers[j].Height() {
			return fmt.Errorf("generalize: level %d of attribute %d out of [0,%d]", l, j, e.hiers[j].Height())
		}
	}
	return nil
}

// scoreAt rolls the base groups up to the level vector and returns the
// grouping's smallest group size and its discernibility, from sizes alone.
func (e *LatticeEvaluator) scoreAt(levels []int) (min int, loss float64, err error) {
	if err := e.checkLevels(levels); err != nil {
		return 0, 0, err
	}
	e.pairs = e.sizesAt(levels, e.pairs[:0])
	min, loss = sizeScore(e.pairs)
	return min, loss, nil
}

// sizesAt appends the (packed key, size) pairs of the grouping at the level
// vector to dst, in first-appearance order of the merged base groups.
func (e *LatticeEvaluator) sizesAt(levels []int, dst []sizedGroup) []sizedGroup {
	e.idx.reset()
	for g, ki := range e.keyIdx {
		var pk uint64
		for j, l := range levels {
			pk |= uint64(uint32(e.lift[j][l][ki[j]])) << e.packer.shift[j]
		}
		dst = merge(&e.idx, dst, pk, len(e.base.Rows[g]))
	}
	return dst
}

// raise appends to dst the pairs of src's grouping with attribute j lifted
// one level: each key's j-field is replaced by its hierarchy parent, and
// pairs whose keys then coincide are merged through idx, which raise
// resets. Attribute j must be below its hierarchy's top in src. dst must
// not share storage with src. raise only reads the evaluator, so calls with
// distinct tables and buffers may run concurrently.
func (e *LatticeEvaluator) raise(idx *keyTable, src []sizedGroup, j int, dst []sizedGroup) []sizedGroup {
	idx.reset()
	h, shift, mask := e.hiers[j], e.packer.shift[j], e.packer.mask[j]
	for _, g := range src {
		parent := h.Parent(int32(g.key >> shift & mask))
		dst = merge(idx, dst, g.key&^(mask<<shift)|uint64(uint32(parent))<<shift, g.size)
	}
	return dst
}

// merge adds size to the pair keyed pk in dst, appending the pair on its
// first appearance since the last reset of idx.
func merge(idx *keyTable, dst []sizedGroup, pk uint64, size int) []sizedGroup {
	i, found := idx.lookup(pk, int32(len(dst)))
	if found {
		dst[i].size += size
		return dst
	}
	return append(dst, sizedGroup{pk, size})
}

// keyTable is an open-addressing hash table from packed key to a dense
// int32 index: power-of-two slots, linear probing, and a generation stamp
// per slot, so a reset is O(1) instead of a clear. It holds at most the
// capacity it was built for — a lattice node has no more groups than the
// lattice bottom — and is not safe for concurrent use.
type keyTable struct {
	slots []keySlot
	shift uint // 64 − log2(len(slots)): the hash keeps the product's top bits
	gen   uint32
}

// keySlot is one table slot; it is occupied iff its gen is the table's.
type keySlot struct {
	key uint64
	gen uint32
	idx int32
}

// newKeyTable sizes a table for up to n keys at a load factor of at most ½.
func newKeyTable(n int) keyTable {
	size := 2 << bits.Len(uint(n))
	return keyTable{
		slots: make([]keySlot, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
		gen:   1,
	}
}

// reset empties the table by advancing the generation; the slots are
// cleared only when the stamp wraps around.
func (t *keyTable) reset() {
	t.gen++
	if t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// lookup returns the index stored under key, or stores next under it and
// returns that with found false. Fibonacci hashing spreads keys that differ
// only in a few bits, high or low, over the table's top-bit slot index.
func (t *keyTable) lookup(key uint64, next int32) (idx int32, found bool) {
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.gen != t.gen {
			*s = keySlot{key: key, gen: t.gen, idx: next}
			return next, false
		}
		if s.key == key {
			return s.idx, true
		}
	}
}

// sizeScore returns the smallest size among the pairs (0 for none) and their
// discernibility Σ|G|². The squares are summed exactly in int64, so the
// result equals Discernibility of the materialized groups bit for bit
// whenever that float sum is exact — any table under 2^26 rows.
func sizeScore(pairs []sizedGroup) (min int, loss float64) {
	var sum int64
	for i, g := range pairs {
		if i == 0 || g.size < min {
			min = g.size
		}
		sum += int64(g.size) * int64(g.size)
	}
	return min, float64(sum)
}

// GroupsAt materializes the grouping at the level vector. The result is
// identical — keys, row sets, and order — to GroupBy under RecodingAt(levels).
func (e *LatticeEvaluator) GroupsAt(levels []int) (*Groups, error) {
	if err := e.checkLevels(levels); err != nil {
		return nil, err
	}
	d := len(e.hiers)
	out := &Groups{}
	e.idx.reset()
	gidOf := make([]int32, len(e.base.Keys))
	var counts []int
	gv := make([]int32, d)
	for g, ki := range e.keyIdx {
		var pk uint64
		for j, l := range levels {
			gv[j] = e.lift[j][l][ki[j]]
			pk |= uint64(uint32(gv[j])) << e.packer.shift[j]
		}
		gi, found := e.idx.lookup(pk, int32(len(out.Keys)))
		if !found {
			out.Keys = append(out.Keys, append([]int32(nil), gv...))
			counts = append(counts, 0)
		}
		gidOf[g] = gi
		counts[gi] += len(e.base.Rows[g])
	}
	out.Rows = make([][]int, len(out.Keys))
	for gi, c := range counts {
		out.Rows[gi] = make([]int, 0, c)
	}
	for i := range e.rowGroup {
		gi := gidOf[e.rowGroup[i]]
		out.Rows[gi] = append(out.Rows[gi], i)
	}
	return out, nil
}

// RecodingAt returns the full-domain recoding of the level vector, memoizing
// the level cuts per attribute.
func (e *LatticeEvaluator) RecodingAt(levels []int) (*Recoding, error) {
	cuts := make([]*hierarchy.Cut, len(e.hiers))
	for j, h := range e.hiers {
		if levels[j] < 0 || levels[j] > h.Height() {
			return nil, fmt.Errorf("generalize: level %d of attribute %d out of [0,%d]", levels[j], j, h.Height())
		}
		if e.cuts[j][levels[j]] == nil {
			c, err := hierarchy.LevelCut(h, levels[j])
			if err != nil {
				return nil, err
			}
			e.cuts[j][levels[j]] = c
		}
		cuts[j] = e.cuts[j][levels[j]]
	}
	return NewRecoding(e.t.Schema, e.hiers, cuts)
}
