package generalize

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/obs"
	"pgpub/internal/par"
)

// TDSConfig parameterizes top-down specialization (Fung, Wang, Yu, ICDE'05),
// the algorithm the paper adapts for Phase 2. TDS starts from the fully
// suppressed table and repeatedly performs the specialization with the best
// information-gain-per-anonymity-loss score, as long as the result stays
// k-anonymous.
type TDSConfig struct {
	// K is the minimum QI-group size (Property G2); must be >= 1.
	K int

	// Metrics optionally receives search diagnostics: rounds run, groups
	// split, final group count, and rows scanned by the initial count
	// (generalize.tds.* and generalize.groupby.rows_scanned). nil disables.
	Metrics *obs.Registry
}

// TDSResult carries the chosen recoding plus search diagnostics.
type TDSResult struct {
	Recoding *Recoding
	Groups   *Groups
	Rounds   int
	MinGroup int
}

// TDS runs top-down specialization and returns a global recoding whose
// grouping is k-anonymous and, subject to that, has (greedily) maximal
// information gain about the table's sensitive values. Those are the values
// the table holds when TDS runs: in the PG pipeline, the perturbed ones.
//
// Grouping is incremental: the search starts from the one group of the
// fully suppressed recoding, and each specialization round splits only the
// groups whose key contains the refined cut node — O(affected rows) instead
// of a full-table re-scan — while candidate scores are maintained from the
// per-group child statistics the engine keeps between rounds. The groups'
// split counts are taken on up to GOMAXPROCS goroutines, one attribute
// each; the result is identical at every value.
func TDS(t *dataset.Table, hiers []*hierarchy.Hierarchy, cfg TDSConfig) (*TDSResult, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("generalize: TDS on an empty table")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("generalize: TDS needs K >= 1, got %d", cfg.K)
	}
	if t.Len() < cfg.K {
		return nil, fmt.Errorf("generalize: table has %d rows, cannot be %d-anonymous", t.Len(), cfg.K)
	}
	// The information gain is scored on the table's sensitive codes, which
	// dataset has already checked against the sensitive domain.
	class := make([]int, t.Len())
	for i := range class {
		class[i] = int(t.Sensitive(i))
	}
	numClasses := t.Schema.SensitiveDomain()

	rec, err := TopRecoding(t.Schema, hiers)
	if err != nil {
		return nil, err
	}
	eng := newTDSEngine(t, hiers, class, numClasses, cfg.K, par.N(0))

	// A cut can be refined at most once per internal node.
	maxRounds := 0
	for _, h := range hiers {
		maxRounds += h.NumNodes() - h.Leaves()
	}

	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		attr, node, ok := eng.bestSpecialization()
		if !ok {
			break
		}
		refined, err := rec.Cuts[attr].Refine(node)
		if err != nil {
			return nil, fmt.Errorf("generalize: TDS refine: %w", err)
		}
		rec.Cuts[attr] = refined
		eng.refine(attr, node)
	}

	groups := eng.finish()
	met := cfg.Metrics
	met.Counter("generalize.groupby.rows_scanned").Add(int64(t.Len()))
	met.Counter("generalize.tds.rounds").Add(int64(rounds))
	met.Counter("generalize.tds.groups_split").Add(int64(eng.splits))
	met.Counter("generalize.tds.groups").Add(int64(len(groups.Keys)))
	return &TDSResult{Recoding: rec, Groups: groups, Rounds: rounds, MinGroup: groups.MinSize()}, nil
}

// tdsGroup is one QI-group of the evolving partition, with the per-attribute
// child split counts a refinement-validity check needs.
type tdsGroup struct {
	key  []int32
	rows []int
	// split[a][c] is the number of the group's rows underneath the c-th
	// child (in Children order) of key[a]; nil when key[a] is a leaf (not
	// refinable). Children without rows count 0.
	split [][]int
}

// tdsCand is the class-histogram state of one (attribute, cut node)
// specialization candidate. It is built exactly once, when the node enters a
// group key, and stays valid until the node itself is refined away: splitting
// groups on a *different* attribute moves rows between groups but never
// changes the set of rows mapping to this node, so total and perChild are
// invariants of the candidate.
type tdsCand struct {
	total []int // class histogram of all rows mapping to the node
	// perChild[c*numClasses+y] counts the node's rows of class y underneath
	// its c-th child.
	perChild []int
}

// tdsHier is the per-hierarchy lookup the engine maps rows with: a row's
// child under a node is one table read instead of a walk up the tree.
type tdsHier struct {
	h *hierarchy.Hierarchy
	// ordAt[dep][leaf] is the Children position of leaf's ancestor at depth
	// dep >= 1 among its parent's children; -1 where the leaf is shallower.
	ordAt [][]int32
	// byID[v] lists v's child positions in ascending node ID, the order
	// infoGain sums children in.
	byID [][]int32
}

func newTDSHier(h *hierarchy.Hierarchy) tdsHier {
	th := tdsHier{h: h, byID: make([][]int32, h.NumNodes())}
	ord := make([]int32, h.NumNodes())
	for v := int32(h.Leaves()); int(v) < h.NumNodes(); v++ {
		kids := h.Children(v)
		pos := make([]int32, len(kids))
		for c, kid := range kids {
			ord[kid] = int32(c)
			pos[c] = int32(c)
		}
		slices.SortFunc(pos, func(x, y int32) int { return cmp.Compare(kids[x], kids[y]) })
		th.byID[v] = pos
	}
	th.ordAt = make([][]int32, h.Height()+1)
	for dep := 1; dep < len(th.ordAt); dep++ {
		row := make([]int32, h.Leaves())
		for leaf := range row {
			u := int32(leaf)
			for h.Depth(u) > dep {
				u = h.Parent(u)
			}
			row[leaf] = -1
			if h.Depth(u) == dep {
				row[leaf] = ord[u]
			}
		}
		th.ordAt[dep] = row
	}
	return th
}

// tdsEngine maintains the grouping and candidate statistics across
// specialization rounds.
type tdsEngine struct {
	t          *dataset.Table
	hiers      []tdsHier
	class      []int
	numClasses int
	k          int
	workers    int
	groups     []*tdsGroup
	// scratch is refine's partition buffer, one slot per table row.
	scratch []int
	cands   map[[2]int32]*tdsCand
	// splits counts the groups broken apart across all refine calls.
	splits int
}

func newTDSEngine(t *dataset.Table, hiers []*hierarchy.Hierarchy, class []int, numClasses, k, workers int) *tdsEngine {
	e := &tdsEngine{
		t:          t,
		hiers:      make([]tdsHier, len(hiers)),
		class:      class,
		numClasses: numClasses,
		k:          k,
		workers:    workers,
		cands:      make(map[[2]int32]*tdsCand),
	}
	for a, h := range hiers {
		e.hiers[a] = newTDSHier(h)
	}
	// Under the fully suppressed recoding every row has the same key, the
	// hierarchies' roots, so the initial partition is one group of the
	// whole table, found without a scan.
	key := make([]int32, len(hiers))
	for a, h := range hiers {
		key[a] = h.Root()
	}
	rows := make([]int, t.Len())
	for i := range rows {
		rows[i] = i
	}
	e.groups = []*tdsGroup{{key: key, rows: rows}}
	e.scratch = make([]int, t.Len())
	e.count([]tdsFamily{{kids: e.groups}}, -1, t.Len())
	return e
}

// childOrds returns the child-position table of internal node v of
// attribute a: entry leaf is the position, among v's children, of the child
// on the path to leaf.
func (e *tdsEngine) childOrds(a int, v int32) []int32 {
	th := &e.hiers[a]
	return th.ordAt[th.h.Depth(v)+1]
}

// tdsFamily is a set of new groups to count. With a parent, the kids are
// the sub-groups one refine split it into: on every attribute but the
// refined one they share the parent's key, so their split counts add up
// to the parent's, and the largest kid's are the parent's minus its
// siblings' — exact integers, taken without reading its rows.
type tdsFamily struct {
	parent *tdsGroup // nil: every kid is counted from its rows
	kids   []*tdsGroup
	big    int // the kid that inherits the parent's counts
}

// tdsParallelRows is the fewest rows a count spans before its attributes
// are counted on separate goroutines.
const tdsParallelRows = 1 << 12

// count builds the per-attribute child split counts of every kid of fams,
// which together hold rows rows, and merges their class statistics into
// the candidates of attribute candAttr (-1 means every refinable attribute
// — the initial grouping, where every candidate is new). The candidates are
// created first, so the attributes, which touch disjoint counts and
// candidates, are then counted concurrently; integer counts do not depend
// on the order they are taken in.
func (e *tdsEngine) count(fams []tdsFamily, candAttr, rows int) {
	d := len(e.hiers)
	for _, f := range fams {
		for _, grp := range f.kids {
			grp.split = make([][]int, d)
			for a := 0; a < d; a++ {
				v := grp.key[a]
				h := e.hiers[a].h
				if h.IsLeaf(v) || (a != candAttr && candAttr >= 0) {
					continue
				}
				if ck := [2]int32{int32(a), v}; e.cands[ck] == nil {
					nKids := len(h.Children(v))
					e.cands[ck] = &tdsCand{total: make([]int, e.numClasses), perChild: make([]int, nKids*e.numClasses)}
				}
			}
		}
	}
	workers := e.workers
	if rows < tdsParallelRows {
		workers = 1
	}
	// Attributes are handed out from candAttr on: its count, over every
	// kid's rows with class statistics, is the longest, so it starts first.
	par.ForEach(workers, d, func(i int) {
		a := (i + max(candAttr, 0)) % d
		e.countAttr(fams, a, a == candAttr || candAttr < 0)
	})
}

// countAttr builds attribute a's split counts of every kid of fams, adding
// its rows to the candidate of the kid's node when withCand is set.
func (e *tdsEngine) countAttr(fams []tdsFamily, a int, withCand bool) {
	h, col := e.hiers[a].h, e.t.QICol(a)
	for _, f := range fams {
		if f.parent != nil && !withCand {
			if h.IsLeaf(f.parent.key[a]) {
				continue
			}
			// The parent is gone once it is split; its counts become the
			// big kid's.
			split := f.parent.split[a]
			for ki, grp := range f.kids {
				if ki != f.big {
					e.countGroup(grp, a, h, col, nil)
					for c, n := range grp.split[a] {
						split[c] -= n
					}
				}
			}
			f.kids[f.big].split[a] = split
			continue
		}
		for _, grp := range f.kids {
			v := grp.key[a]
			if h.IsLeaf(v) {
				continue
			}
			var c *tdsCand
			if withCand {
				c = e.cands[[2]int32{int32(a), v}]
			}
			e.countGroup(grp, a, h, col, c)
		}
	}
}

// countGroup scans the group's rows for attribute a, whose key node is
// internal, into a new split count, and into c when it is non-nil.
func (e *tdsEngine) countGroup(grp *tdsGroup, a int, h *hierarchy.Hierarchy, col *dataset.Column, c *tdsCand) {
	v := grp.key[a]
	split := make([]int, len(h.Children(v)))
	grp.split[a] = split
	ords := e.childOrds(a, v)
	if u8 := col.U8(); u8 != nil {
		countChildren(u8, grp.rows, ords, split, c, e.class, e.numClasses)
	} else {
		countChildren(col.I32(), grp.rows, ords, split, c, e.class, e.numClasses)
	}
}

// countChildren adds rows to a group's child split counts and, when c is
// non-nil, to the candidate's class histograms.
func countChildren[T uint8 | int32](codes []T, rows []int, ords []int32, split []int, c *tdsCand, class []int, numClasses int) {
	if c == nil {
		for _, i := range rows {
			split[ords[codes[i]]]++
		}
		return
	}
	for _, i := range rows {
		o := int(ords[codes[i]])
		split[o]++
		cl := class[i]
		c.total[cl]++
		c.perChild[o*numClasses+cl]++
	}
}

// bestSpecialization aggregates validity over the current groups' split
// counts, scores every valid candidate from its maintained class histograms,
// and returns the one maximizing InfoGain / (AnonyLoss + 1). Candidates are
// ranked in (attribute, node) order, so ties break deterministically. ok is
// false when no specialization is valid.
func (e *tdsEngine) bestSpecialization() (attr int, node int32, ok bool) {
	curMin := math.MaxInt
	for _, grp := range e.groups {
		if len(grp.rows) < curMin {
			curMin = len(grp.rows)
		}
	}

	type agg struct {
		valid    bool
		minAfter int
	}
	aggs := make(map[[2]int32]*agg, len(e.cands))
	order := make([][2]int32, 0, len(e.cands))
	for _, grp := range e.groups {
		for a, split := range grp.split {
			if split == nil {
				continue
			}
			ck := [2]int32{int32(a), grp.key[a]}
			ag := aggs[ck]
			if ag == nil {
				ag = &agg{valid: true, minAfter: math.MaxInt}
				aggs[ck] = ag
				order = append(order, ck)
			}
			for _, cnt := range split {
				if cnt == 0 {
					continue
				}
				if cnt < e.k {
					ag.valid = false
				}
				if cnt < ag.minAfter {
					ag.minAfter = cnt
				}
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})

	bestScore := math.Inf(-1)
	for _, ck := range order {
		ag := aggs[ck]
		if !ag.valid {
			continue
		}
		c := e.cands[ck]
		gain := infoGain(c.total, c.perChild, e.hiers[ck[0]].byID[ck[1]])
		loss := float64(curMin - ag.minAfter)
		if loss < 0 {
			loss = 0
		}
		score := gain / (loss + 1)
		if score > bestScore {
			bestScore = score
			attr, node, ok = int(ck[0]), ck[1], true
		}
	}
	return attr, node, ok
}

// refine performs the specialization (attr, node): every group whose key
// contains the node is split by the node's children, in one pass over the
// affected rows only. Unaffected groups — and the candidate statistics of
// every other attribute — are reused as-is. The sub-groups of one group are
// spawned in first-appearance order of their child among its rows; the
// largest of them takes its split counts on every other attribute from the
// parent's (see tdsFamily).
//
// A group's rows are partitioned by child in place, stably, through the
// engine's row scratch: the parent's split counts on attr size every
// child's run in advance, and each sub-group's rows are then its run of the
// parent's row slice, so splitting allocates no row lists.
func (e *tdsEngine) refine(attr int, node int32) {
	kids := e.hiers[attr].h.Children(node)
	delete(e.cands, [2]int32{int32(attr), node})
	ords, col := e.childOrds(attr, node), e.t.QICol(attr)
	first := make([]int, len(kids))
	pos := make([]int, len(kids))
	order := make([]int32, 0, len(kids))
	out := e.groups[:0]
	var spawned []*tdsGroup
	var fams []tdsFamily
	rows := 0
	for _, grp := range e.groups {
		if grp.key[attr] != node {
			out = append(out, grp)
			continue
		}
		e.splits++
		rows += len(grp.rows)
		off := 0
		for o, n := range grp.split[attr] {
			first[o], pos[o] = off, off
			off += n
		}
		if u8 := col.U8(); u8 != nil {
			order = partitionRows(u8, grp.rows, e.scratch, ords, first, pos, order[:0])
		} else {
			order = partitionRows(col.I32(), grp.rows, e.scratch, ords, first, pos, order[:0])
		}
		copy(grp.rows, e.scratch[:len(grp.rows)])
		f := tdsFamily{parent: grp, kids: make([]*tdsGroup, len(order))}
		for ki, o := range order {
			key := append([]int32(nil), grp.key...)
			key[attr] = kids[o]
			run := grp.rows[first[o]:pos[o]:pos[o]]
			f.kids[ki] = &tdsGroup{key: key, rows: run}
			if len(run) > len(f.kids[f.big].rows) {
				f.big = ki
			}
		}
		spawned = append(spawned, f.kids...)
		fams = append(fams, f)
	}
	e.count(fams, attr, rows)
	e.groups = append(out, spawned...)
}

// partitionRows writes rows into out by child position, stably: a row whose
// child is o goes to out[pos[o]], and pos[o] advances. first[o] is where
// child o's run begins; the children are appended to order as they first
// appear.
func partitionRows[T uint8 | int32](codes []T, rows, out []int, ords []int32, first, pos []int, order []int32) []int32 {
	for _, i := range rows {
		o := ords[codes[i]]
		if pos[o] == first[o] {
			order = append(order, o)
		}
		out[pos[o]] = i
		pos[o]++
	}
	return order
}

// finish canonicalizes the partition into the GroupBy contract: groups in
// first-appearance order of their smallest row index (rows within each group
// are already ascending, because splits preserve row order).
func (e *tdsEngine) finish() *Groups {
	sort.Slice(e.groups, func(i, j int) bool { return e.groups[i].rows[0] < e.groups[j].rows[0] })
	out := &Groups{Keys: make([][]int32, len(e.groups)), Rows: make([][]int, len(e.groups))}
	for gi, grp := range e.groups {
		out.Keys[gi] = grp.key
		out.Rows[gi] = grp.rows
	}
	return out
}

// entropy computes the Shannon entropy (nats) of a count histogram.
func entropy(hist []int) float64 {
	total := 0
	for _, n := range hist {
		total += n
	}
	if total == 0 {
		return 0
	}
	e := 0.0
	for _, n := range hist {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		e -= p * math.Log(p)
	}
	return e
}

// infoGain is I(parent) - sum_c |R_c|/|R| * I(R_c), over perChild's
// numClasses-wide child histograms. Children are summed in node-ID order
// (byID lists their positions so) and children without rows are skipped, so
// the floating-point result is reproducible across runs.
func infoGain(total, perChild []int, byID []int32) float64 {
	n := 0
	for _, c := range total {
		n += c
	}
	if n == 0 {
		return 0
	}
	nc := len(total)
	g := entropy(total)
	for _, c := range byID {
		hist := perChild[int(c)*nc : (int(c)+1)*nc]
		cn := 0
		for _, cc := range hist {
			cn += cc
		}
		if cn == 0 {
			continue
		}
		g -= float64(cn) / float64(n) * entropy(hist)
	}
	return g
}
