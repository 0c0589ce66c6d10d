package generalize

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
)

// legacyTDS below is TDS as it was before the grouping engine: every round
// re-groups the whole table and rebuilds each candidate's statistics by
// walking the hierarchy (refChildToward) for every row and attribute, in
// maps keyed by child node. Kept test-only as the reference TDS must
// reproduce exactly, and as BenchmarkTDSEngine's legacy-rescan case.

// legacyTDS is the pre-engine TDS inner loop: a full-table GroupBy after
// every specialization round, with candidate statistics rebuilt from scratch
// by re-scanning every group. It returns the final groups and the number of
// specializations applied. The one change from the pre-engine code is that
// candidates are scored in (attribute, node) order, the order TDS ranks
// them in, so ties break the same way.
func legacyTDS(t *dataset.Table, hiers []*hierarchy.Hierarchy, class []int, numClasses, k int) (*Groups, int, error) {
	rec, err := TopRecoding(t.Schema, hiers)
	if err != nil {
		return nil, 0, err
	}
	groups := GroupBy(t, rec)
	maxRounds := 0
	for _, h := range hiers {
		maxRounds += h.NumNodes() - h.Leaves()
	}
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		attr, node, ok := legacyBestSpecialization(t, rec, groups, class, numClasses, k)
		if !ok {
			break
		}
		refined, err := rec.Cuts[attr].Refine(node)
		if err != nil {
			return nil, 0, err
		}
		rec.Cuts[attr] = refined
		groups = GroupBy(t, rec)
	}
	return groups, rounds, nil
}

type legacyCandidate struct {
	attr       int
	node       int32
	total      []int
	perChild   map[int32][]int
	groupChild []map[int32]int
	groupIdx   map[int]int
	groupSize  []int
}

func legacyBestSpecialization(t *dataset.Table, rec *Recoding, groups *Groups, class []int, numClasses, k int) (attr int, node int32, ok bool) {
	d := rec.D()
	cands := make(map[[2]int32]*legacyCandidate)
	for gi, rows := range groups.Rows {
		key := groups.Keys[gi]
		for a := 0; a < d; a++ {
			v := key[a]
			h := rec.Hierarchies[a]
			if h.IsLeaf(v) {
				continue
			}
			ck := [2]int32{int32(a), v}
			c := cands[ck]
			if c == nil {
				c = &legacyCandidate{
					attr:     a,
					node:     v,
					total:    make([]int, numClasses),
					perChild: make(map[int32][]int),
					groupIdx: make(map[int]int),
				}
				cands[ck] = c
			}
			slot := len(c.groupChild)
			c.groupIdx[gi] = slot
			c.groupChild = append(c.groupChild, make(map[int32]int))
			c.groupSize = append(c.groupSize, len(rows))
			for _, i := range rows {
				leaf := t.QI(i, a)
				child := refChildToward(h, v, leaf)
				c.total[class[i]]++
				hist := c.perChild[child]
				if hist == nil {
					hist = make([]int, numClasses)
					c.perChild[child] = hist
				}
				hist[class[i]]++
				c.groupChild[slot][child]++
			}
		}
	}
	order := make([][2]int32, 0, len(cands))
	for ck := range cands {
		order = append(order, ck)
	}
	slices.SortFunc(order, func(x, y [2]int32) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	curMin := groups.MinSize()
	bestScore := math.Inf(-1)
	for _, ck := range order {
		c := cands[ck]
		minAfter := math.MaxInt
		valid := true
		for _, split := range c.groupChild {
			for _, cnt := range split {
				if cnt < k {
					valid = false
					break
				}
				if cnt < minAfter {
					minAfter = cnt
				}
			}
			if !valid {
				break
			}
		}
		if !valid {
			continue
		}
		gain := refInfoGain(c.total, c.perChild)
		loss := float64(curMin - minAfter)
		if loss < 0 {
			loss = 0
		}
		score := gain / (loss + 1)
		if score > bestScore {
			bestScore = score
			attr, node, ok = c.attr, c.node, true
		}
	}
	return attr, node, ok
}

// refChildToward returns the child of internal node v on the path toward leaf.
func refChildToward(h *hierarchy.Hierarchy, v, leaf int32) int32 {
	u := leaf
	for h.Parent(u) != v {
		u = h.Parent(u)
	}
	return u
}

// refInfoGain is I(parent) - sum_c |R_c|/|R| * I(R_c). Children are summed in
// node order so the floating-point result is reproducible across runs.
func refInfoGain(total []int, perChild map[int32][]int) float64 {
	n := 0
	for _, c := range total {
		n += c
	}
	if n == 0 {
		return 0
	}
	children := make([]int32, 0, len(perChild))
	for c := range perChild {
		children = append(children, c)
	}
	sort.Slice(children, func(i, j int) bool { return children[i] < children[j] })
	g := entropy(total)
	for _, c := range children {
		hist := perChild[c]
		cn := 0
		for _, cc := range hist {
			cn += cc
		}
		g -= float64(cn) / float64(n) * entropy(hist)
	}
	return g
}

// randomHierarchy draws a tree over n leaves with random fan-outs and
// uneven leaf depths, whose internal node IDs are shuffled so that node-ID
// order and Children (range) order disagree.
func randomHierarchy(n int, rng *rand.Rand) *hierarchy.Hierarchy {
	parent := make([]int32, n)
	var internal []int // placeholder slots; IDs assigned after the shape is known
	var links [][2]int // (child slot, parent slot); slots >= n are internal
	var grow func(lo, hi int) int
	grow = func(lo, hi int) int {
		if lo == hi {
			return lo
		}
		slot := n + len(internal)
		internal = append(internal, slot)
		kids := 2 + rng.Intn(min(3, hi-lo))
		cuts := rng.Perm(hi - lo)[:kids-1]
		slices.Sort(cuts)
		start := lo
		for _, c := range append(cuts, hi-lo) {
			end := lo + c
			if c == hi-lo {
				end = hi
			}
			links = append(links, [2]int{grow(start, end), slot})
			start = end + 1
		}
		return slot
	}
	if n == 1 {
		return hierarchy.MustFlat(1)
	}
	root := grow(0, n-1)
	ids := rng.Perm(len(internal))
	id := func(slot int) int32 {
		if slot < n {
			return int32(slot)
		}
		return int32(n + ids[slot-n])
	}
	parent = append(parent, make([]int32, len(internal))...)
	parent[id(root)] = -1
	for _, l := range links {
		parent[id(l[0])] = id(l[1])
	}
	h, err := hierarchy.FromParents(n, parent)
	if err != nil {
		panic(err)
	}
	return h
}

// TestTDSMatchesReference pins TDS to the full-rescan reference: equal
// groups, keys and round counts on random tables over random hierarchies,
// with sensitive domains of one to four values, at one to three workers, on
// some tables large enough that the split counts are taken concurrently.
func TestTDSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		d := 1 + rng.Intn(4)
		attrs := make([]*dataset.Attribute, d)
		hiers := make([]*hierarchy.Hierarchy, d)
		for j := range attrs {
			size := 1 + rng.Intn(20)
			attrs[j] = dataset.MustIntAttribute(string(rune('A'+j)), 0, size-1)
			hiers[j] = randomHierarchy(size, rng)
		}
		// Odd trials vary the sensitive domain TDS scores its gain on.
		nc := 3
		if trial%2 == 1 {
			nc = 1 + rng.Intn(4)
		}
		sens := dataset.MustAttribute("S", []string{"s0", "s1", "s2", "s3"}[:nc]...)
		tbl := dataset.NewTable(dataset.MustSchema(attrs, sens))
		n := 20 + rng.Intn(600)
		if trial%25 == 0 {
			// Large enough that the counts run on separate goroutines.
			n = tdsParallelRows + rng.Intn(4000)
		}
		row := make([]int32, d+1)
		for i := 0; i < n; i++ {
			for j := range attrs {
				row[j] = int32(min(int(rng.ExpFloat64()*float64(attrs[j].Size())/3), attrs[j].Size()-1))
			}
			row[d] = int32(rng.Intn(nc))
			tbl.MustAppend(row)
		}
		k := 1 + rng.Intn(6)
		cfg := TDSConfig{K: k, Workers: 1 + trial%3}
		class := make([]int, n)
		for i := range class {
			class[i] = int(tbl.Sensitive(i))
		}
		want, wantRounds, err := legacyTDS(tbl, hiers, class, nc, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TDS(tbl, hiers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rounds != wantRounds || len(got.Groups.Keys) != len(want.Keys) {
			t.Fatalf("trial %d: %d rounds, %d groups; reference %d, %d", trial, got.Rounds, len(got.Groups.Keys), wantRounds, len(want.Keys))
		}
		for g := range want.Keys {
			if !slices.Equal(got.Groups.Keys[g], want.Keys[g]) || !slices.Equal(got.Groups.Rows[g], want.Rows[g]) {
				t.Fatalf("trial %d: group %d differs", trial, g)
			}
		}
	}
}

// TestTDSSplitCountsMatchesReference checks the engine's state after every
// round against counts taken from scratch: each group's split counts on
// every refinable attribute — those a refine derives by subtraction
// included — and each live candidate's class histograms, at one to three
// workers, on tables below and above the concurrent-count threshold.
func TestTDSSplitCountsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 24; trial++ {
		n := 100 + rng.Intn(500)
		if trial%4 == 0 {
			n = tdsParallelRows + rng.Intn(3000)
		}
		tbl, hiers := engineTable(n, rng)
		class := make([]int, n)
		for i := range class {
			class[i] = int(tbl.Sensitive(i))
		}
		nc := tbl.Schema.SensitiveDomain()
		e := newTDSEngine(tbl, hiers, class, nc, 1+rng.Intn(4), 1+trial%3)
		for round := 0; ; round++ {
			if err := checkTDSCounts(e); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			attr, node, ok := e.bestSpecialization()
			if !ok {
				break
			}
			e.refine(attr, node)
		}
	}
}

// checkTDSCounts recounts every group's split counts and every candidate's
// class histograms from the rows and compares them with the engine's.
func checkTDSCounts(e *tdsEngine) error {
	fresh := map[[2]int32]*tdsCand{}
	for gi, grp := range e.groups {
		for a, v := range grp.key {
			h := e.hiers[a].h
			if h.IsLeaf(v) {
				if grp.split[a] != nil {
					return fmt.Errorf("group %d has split counts on leaf attribute %d", gi, a)
				}
				continue
			}
			ords, nKids := e.childOrds(a, v), len(h.Children(v))
			ck := [2]int32{int32(a), v}
			c := fresh[ck]
			if c == nil {
				c = &tdsCand{total: make([]int, e.numClasses), perChild: make([]int, nKids*e.numClasses)}
				fresh[ck] = c
			}
			split := make([]int, nKids)
			for _, i := range grp.rows {
				o := int(ords[e.t.QI(i, a)])
				split[o]++
				c.total[e.class[i]]++
				c.perChild[o*e.numClasses+e.class[i]]++
			}
			if !slices.Equal(split, grp.split[a]) {
				return fmt.Errorf("group %d attribute %d: split %v, rows give %v", gi, a, grp.split[a], split)
			}
		}
	}
	for ck, c := range e.cands {
		want := fresh[ck]
		if want == nil || !slices.Equal(c.total, want.total) || !slices.Equal(c.perChild, want.perChild) {
			return fmt.Errorf("candidate %v: class histograms differ from the rows'", ck)
		}
	}
	return nil
}

// TestInfoGainMatchesReference compares the dense infoGain with the
// map-based one bit for bit, over hierarchies whose child IDs are out of
// range order, so summing in Children order instead of ID order shows.
func TestInfoGainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		h := randomHierarchy(2+rng.Intn(30), rng)
		th := newTDSHier(h)
		v := int32(h.Leaves() + rng.Intn(h.NumNodes()-h.Leaves()))
		kids := h.Children(v)
		nc := 1 + rng.Intn(5)
		total := make([]int, nc)
		perChild := make([]int, len(kids)*nc)
		ref := make(map[int32][]int)
		for c, kid := range kids {
			if rng.Intn(4) == 0 {
				continue // a child without rows
			}
			hist := make([]int, nc)
			for y := range hist {
				hist[y] = rng.Intn(1000)
				total[y] += hist[y]
				perChild[c*nc+y] = hist[y]
			}
			ref[kid] = hist
		}
		got, want := infoGain(total, perChild, th.byID[v]), refInfoGain(total, ref)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: infoGain %v, reference %v", trial, got, want)
		}
	}
}
