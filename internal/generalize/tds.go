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
)

// TDSConfig parameterizes top-down specialization (Fung, Wang, Yu, ICDE'05),
// the algorithm the paper adapts for Phase 2. TDS starts from the fully
// suppressed table and repeatedly performs the specialization with the best
// information-gain-per-anonymity-loss score, as long as the result stays
// k-anonymous.
type TDSConfig struct {
	// K is the minimum QI-group size (Property G2); must be >= 1.
	K int

	// Class holds the per-row class labels used by the information-gain
	// score (the mining task the publication should serve, e.g. the income
	// category). When nil, the sensitive codes themselves are used.
	Class []int
	// NumClasses is the number of distinct class labels; required when
	// Class is set.
	NumClasses int

	// Workers bounds the goroutines of the initial sharded grouping scan.
	// 0 means GOMAXPROCS; the result is identical for every value.
	Workers int

	// Metrics optionally receives search diagnostics: rounds run, groups
	// split, final group count, and rows scanned by the initial grouping
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
// information gain about the class labels.
//
// Grouping is incremental: the table is grouped once under the starting
// (fully suppressed) recoding, and each specialization round splits only the
// groups whose key contains the refined cut node — O(affected rows) instead
// of a full-table re-scan — while candidate scores are maintained from the
// per-group child statistics the engine keeps between rounds.
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
	class := cfg.Class
	numClasses := cfg.NumClasses
	if class == nil {
		class = make([]int, t.Len())
		for i := range class {
			class[i] = int(t.Sensitive(i))
		}
		numClasses = t.Schema.SensitiveDomain()
	}
	if len(class) != t.Len() {
		return nil, fmt.Errorf("generalize: %d class labels for %d rows", len(class), t.Len())
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("generalize: NumClasses must be >= 1 when Class is set")
	}
	for i, c := range class {
		if c < 0 || c >= numClasses {
			return nil, fmt.Errorf("generalize: class label %d of row %d out of [0,%d)", c, i, numClasses)
		}
	}

	rec, err := TopRecoding(t.Schema, hiers)
	if err != nil {
		return nil, err
	}
	eng := newTDSEngine(t, hiers, rec, class, numClasses, cfg.K, cfg.Workers)

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
	groups     []*tdsGroup
	cands      map[[2]int32]*tdsCand
	// splits counts the groups broken apart across all refine calls.
	splits int
}

func newTDSEngine(t *dataset.Table, hiers []*hierarchy.Hierarchy, rec *Recoding, class []int, numClasses, k, workers int) *tdsEngine {
	e := &tdsEngine{
		t:          t,
		hiers:      make([]tdsHier, len(hiers)),
		class:      class,
		numClasses: numClasses,
		k:          k,
		cands:      make(map[[2]int32]*tdsCand),
	}
	for a, h := range hiers {
		e.hiers[a] = newTDSHier(h)
	}
	g := GroupByWorkers(t, rec, workers)
	for gi := range g.Keys {
		grp := &tdsGroup{key: g.Keys[gi], rows: g.Rows[gi]}
		e.addGroup(grp, -1)
		e.groups = append(e.groups, grp)
	}
	return e
}

// childOrds returns the child-position table of internal node v of
// attribute a: entry leaf is the position, among v's children, of the child
// on the path to leaf.
func (e *tdsEngine) childOrds(a int, v int32) []int32 {
	th := &e.hiers[a]
	return th.ordAt[th.h.Depth(v)+1]
}

// addGroup scans the group's rows once, building its per-attribute child
// split counts and merging its class statistics into the candidates of
// attribute candAttr (-1 means every refinable attribute — used for the
// initial grouping, where every candidate is new).
func (e *tdsEngine) addGroup(grp *tdsGroup, candAttr int) {
	d := len(grp.key)
	grp.split = make([][]int, d)
	for a := 0; a < d; a++ {
		v := grp.key[a]
		h := e.hiers[a].h
		if h.IsLeaf(v) {
			continue
		}
		nKids := len(h.Children(v))
		split := make([]int, nKids)
		grp.split[a] = split
		var c *tdsCand
		if a == candAttr || candAttr < 0 {
			ck := [2]int32{int32(a), v}
			c = e.cands[ck]
			if c == nil {
				c = &tdsCand{total: make([]int, e.numClasses), perChild: make([]int, nKids*e.numClasses)}
				e.cands[ck] = c
			}
		}
		ords, col := e.childOrds(a, v), e.t.QICol(a)
		if u8 := col.U8(); u8 != nil {
			countChildren(u8, grp.rows, ords, split, c, e.class, e.numClasses)
		} else {
			countChildren(col.I32(), grp.rows, ords, split, c, e.class, e.numClasses)
		}
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
// spawned in first-appearance order of their child among its rows.
func (e *tdsEngine) refine(attr int, node int32) {
	kids := e.hiers[attr].h.Children(node)
	delete(e.cands, [2]int32{int32(attr), node})
	ords, col := e.childOrds(attr, node), e.t.QICol(attr)
	sub := make([]*tdsGroup, len(kids))
	order := make([]int32, 0, len(kids))
	out := e.groups[:0]
	var spawned []*tdsGroup
	for _, grp := range e.groups {
		if grp.key[attr] != node {
			out = append(out, grp)
			continue
		}
		e.splits++
		clear(sub)
		order = order[:0]
		for _, i := range grp.rows {
			o := ords[col.Get(i)]
			sg := sub[o]
			if sg == nil {
				key := append([]int32(nil), grp.key...)
				key[attr] = kids[o]
				sg = &tdsGroup{key: key, rows: make([]int, 0, grp.split[attr][o])}
				sub[o] = sg
				order = append(order, o)
			}
			sg.rows = append(sg.rows, i)
		}
		for _, o := range order {
			e.addGroup(sub[o], attr)
			spawned = append(spawned, sub[o])
		}
	}
	e.groups = append(out, spawned...)
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
