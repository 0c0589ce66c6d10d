// Package mining implements the decision-tree substrate of the utility
// evaluation (Section VII): a weighted Gini-split tree grower in the spirit
// of SLIQ [17] for the optimistic/pessimistic yardsticks, and a
// reconstruction-weighted variant for mining PG output directly (the
// substitute for the unavailable tech report [12], see DESIGN.md §3): class
// histograms are corrected for the known perturbation operator before split
// scoring and leaf labelling, and every published tuple carries its stratum
// size G as an instance weight.
package mining

import (
	"fmt"
	"math"
)

// Dataset is a weighted, integer-coded training set. Feature j of every row
// is a code in [0, NumValues[j]); Ordered[j] marks features whose codes
// carry a natural order (threshold splits) versus categorical ones (multiway
// splits).
type Dataset struct {
	NumValues  []int
	Ordered    []bool
	NumClasses int

	rows    [][]int32
	class   []int
	weights []float64
}

// NewDataset creates an empty dataset with the given feature layout.
func NewDataset(numValues []int, ordered []bool, numClasses int) (*Dataset, error) {
	if len(numValues) == 0 {
		return nil, fmt.Errorf("mining: dataset needs at least one feature")
	}
	if len(ordered) != len(numValues) {
		return nil, fmt.Errorf("mining: %d ordered flags for %d features", len(ordered), len(numValues))
	}
	for j, n := range numValues {
		if n < 1 {
			return nil, fmt.Errorf("mining: feature %d has %d values", j, n)
		}
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("mining: need at least 2 classes, got %d", numClasses)
	}
	return &Dataset{
		NumValues:  append([]int(nil), numValues...),
		Ordered:    append([]bool(nil), ordered...),
		NumClasses: numClasses,
	}, nil
}

// Add appends one weighted training row. The features slice is retained.
func (ds *Dataset) Add(features []int32, class int, weight float64) error {
	if len(features) != len(ds.NumValues) {
		return fmt.Errorf("mining: row has %d features, dataset wants %d", len(features), len(ds.NumValues))
	}
	for j, v := range features {
		if v < 0 || int(v) >= ds.NumValues[j] {
			return fmt.Errorf("mining: feature %d code %d out of [0,%d)", j, v, ds.NumValues[j])
		}
	}
	if class < 0 || class >= ds.NumClasses {
		return fmt.Errorf("mining: class %d out of [0,%d)", class, ds.NumClasses)
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return fmt.Errorf("mining: weight must be positive and finite, got %v", weight)
	}
	ds.rows = append(ds.rows, features)
	ds.class = append(ds.class, class)
	ds.weights = append(ds.weights, weight)
	return nil
}

// Len returns the number of training rows.
func (ds *Dataset) Len() int { return len(ds.rows) }

// Config tunes tree growth.
type Config struct {
	// MaxDepth caps the tree depth (root = depth 0). Default 12.
	MaxDepth int
	// MinLeafWeight is the smallest total weight a node may have and still
	// be split. Default 50.
	MinLeafWeight float64
	// MinGain is the minimum Gini-impurity reduction a split must achieve.
	// Default 1e-4.
	MinGain float64
	// Adjust optionally corrects an observed class histogram before it is
	// used for impurity and labelling — the reconstruction hook for
	// perturbed data. It must return a non-negative histogram of the same
	// length; nil means identity.
	Adjust func(obs []float64) []float64
}

func (c *Config) setDefaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeafWeight <= 0 {
		c.MinLeafWeight = 50
	}
	if c.MinGain <= 0 {
		c.MinGain = 1e-4
	}
}

// node is one tree node. Leaves have feature == -1. Ordered splits route
// code <= threshold left; categorical splits route by exact code, falling
// back to the node's own label for unseen codes.
type node struct {
	label   int
	feature int

	threshold   int32
	left, right *node

	children map[int32]*node
}

// Tree is a trained decision tree.
type Tree struct {
	root  *node
	nodes int
	depth int
}

// Size returns the number of nodes.
func (t *Tree) Size() int { return t.nodes }

// Depth returns the maximum depth (root = 0).
func (t *Tree) Depth() int { return t.depth }

// Build grows a decision tree on the dataset.
func Build(ds *Dataset, cfg Config) (*Tree, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("mining: empty dataset")
	}
	cfg.setDefaults()
	b := &builder{ds: ds, cfg: cfg}
	rows := make([]int, ds.Len())
	for i := range rows {
		rows[i] = i
	}
	t := &Tree{}
	t.root = b.grow(rows, 0, t)
	return t, nil
}

type builder struct {
	ds  *Dataset
	cfg Config
}

// histogram accumulates the weighted class counts of a row set.
func (b *builder) histogram(rows []int) []float64 {
	h := make([]float64, b.ds.NumClasses)
	for _, i := range rows {
		h[b.ds.class[i]] += b.ds.weights[i]
	}
	return h
}

// adjust applies the reconstruction hook, clamping negatives.
func (b *builder) adjust(h []float64) []float64 {
	if b.cfg.Adjust == nil {
		return h
	}
	out := b.cfg.Adjust(h)
	for i, v := range out {
		if v < 0 || math.IsNaN(v) {
			out[i] = 0
		}
	}
	return out
}

// gini returns the Gini impurity of a histogram and its total mass.
func gini(h []float64) (float64, float64) {
	total := 0.0
	for _, v := range h {
		total += v
	}
	if total == 0 {
		return 0, 0
	}
	g := 1.0
	for _, v := range h {
		p := v / total
		g -= p * p
	}
	return g, total
}

// argmax returns the index of the largest histogram entry.
func argmax(h []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range h {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func (b *builder) grow(rows []int, depth int, t *Tree) *node {
	t.nodes++
	if depth > t.depth {
		t.depth = depth
	}
	hist := b.adjust(b.histogram(rows))
	n := &node{label: argmax(hist), feature: -1}
	g, total := gini(hist)
	if depth >= b.cfg.MaxDepth || total < 2*b.cfg.MinLeafWeight || g == 0 {
		return n
	}
	feat, thr, parts, gain := b.bestSplit(rows, g, total)
	if feat < 0 || gain < b.cfg.MinGain {
		return n
	}
	n.feature = feat
	if b.ds.Ordered[feat] {
		n.threshold = thr
		n.left = b.grow(parts[0], depth+1, t)
		n.right = b.grow(parts[1], depth+1, t)
	} else {
		n.children = make(map[int32]*node, len(parts))
		for _, part := range parts {
			if len(part) == 0 {
				continue
			}
			code := b.ds.rows[part[0]][feat]
			n.children[code] = b.grow(part, depth+1, t)
		}
	}
	return n
}

// bestSplit scans all features and returns the best split: the feature, the
// threshold (ordered only), the row partitions (2 for ordered, one per
// present code for categorical), and the impurity gain. feature < 0 means no
// usable split.
func (b *builder) bestSplit(rows []int, parentGini, total float64) (feature int, threshold int32, parts [][]int, gain float64) {
	feature = -1
	for f := range b.ds.NumValues {
		if b.ds.Ordered[f] {
			thr, g, ok := b.bestThreshold(rows, f, parentGini, total)
			if ok && g > gain {
				left, right := b.partitionOrdered(rows, f, thr)
				if len(left) > 0 && len(right) > 0 {
					feature, threshold, parts, gain = f, thr, [][]int{left, right}, g
				}
			}
			continue
		}
		g, ok := b.categoricalGain(rows, f, parentGini, total)
		if ok && g > gain {
			feature, threshold, gain = f, 0, g
			parts = b.partitionCategorical(rows, f)
		}
	}
	return feature, threshold, parts, gain
}

// bestThreshold scans thresholds of an ordered feature using per-value class
// matrices and prefix sums.
func (b *builder) bestThreshold(rows []int, f int, parentGini, total float64) (int32, float64, bool) {
	nv, nc := b.ds.NumValues[f], b.ds.NumClasses
	mat := make([]float64, nv*nc)
	for _, i := range rows {
		mat[int(b.ds.rows[i][f])*nc+b.ds.class[i]] += b.ds.weights[i]
	}
	left := make([]float64, nc)
	right := b.histogram(rows)
	bestGain, bestThr, found := 0.0, int32(0), false
	for v := 0; v < nv-1; v++ {
		empty := true
		for c := 0; c < nc; c++ {
			w := mat[v*nc+c]
			if w != 0 {
				empty = false
			}
			left[c] += w
			right[c] -= w
		}
		if empty {
			continue
		}
		gl, wl := gini(b.adjust(append([]float64(nil), left...)))
		gr, wr := gini(b.adjust(append([]float64(nil), right...)))
		if wl == 0 || wr == 0 {
			continue
		}
		split := (wl*gl + wr*gr) / (wl + wr)
		if g := parentGini - split; g > bestGain {
			bestGain, bestThr, found = g, int32(v), true
		}
	}
	return bestThr, bestGain, found
}

// categoricalGain computes the impurity reduction of the multiway split.
func (b *builder) categoricalGain(rows []int, f int, parentGini, total float64) (float64, bool) {
	nc := b.ds.NumClasses
	hists := make(map[int32][]float64)
	for _, i := range rows {
		code := b.ds.rows[i][f]
		h := hists[code]
		if h == nil {
			h = make([]float64, nc)
			hists[code] = h
		}
		h[b.ds.class[i]] += b.ds.weights[i]
	}
	if len(hists) < 2 {
		return 0, false
	}
	split, wsum := 0.0, 0.0
	for _, h := range hists {
		g, w := gini(b.adjust(h))
		split += g * w
		wsum += w
	}
	if wsum == 0 {
		return 0, false
	}
	return parentGini - split/wsum, true
}

func (b *builder) partitionOrdered(rows []int, f int, thr int32) (left, right []int) {
	for _, i := range rows {
		if b.ds.rows[i][f] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right
}

func (b *builder) partitionCategorical(rows []int, f int) [][]int {
	byCode := make(map[int32][]int)
	for _, i := range rows {
		byCode[b.ds.rows[i][f]] = append(byCode[b.ds.rows[i][f]], i)
	}
	parts := make([][]int, 0, len(byCode))
	for _, p := range byCode {
		parts = append(parts, p)
	}
	return parts
}

// Relabel recomputes every node's class label from an independent dataset
// ("honest" labelling): each row is routed down the tree, accumulating class
// histograms at every node it passes; labels are then re-derived top-down
// with adjust applied, and a node whose accumulated weight falls below
// minWeight inherits its parent's label. This removes the winner's-curse
// bias of labelling leaves with the same (noisy) data that selected the
// splits — essential when adjust is a variance-amplifying reconstruction.
func (t *Tree) Relabel(ds *Dataset, minWeight float64, adjust func([]float64) []float64) error {
	if len(ds.rows) == 0 {
		return fmt.Errorf("mining: relabel with an empty dataset")
	}
	hists := make(map[*node][]float64)
	get := func(n *node) []float64 {
		h := hists[n]
		if h == nil {
			h = make([]float64, ds.NumClasses)
			hists[n] = h
		}
		return h
	}
	for i, feats := range ds.rows {
		n := t.root
		for {
			get(n)[ds.class[i]] += ds.weights[i]
			if n.feature < 0 {
				break
			}
			if n.children != nil {
				child, ok := n.children[feats[n.feature]]
				if !ok {
					break
				}
				n = child
				continue
			}
			if feats[n.feature] <= n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
	}
	clamp := func(h []float64) []float64 {
		if adjust == nil {
			return h
		}
		out := adjust(append([]float64(nil), h...))
		for i, v := range out {
			if v < 0 || math.IsNaN(v) {
				out[i] = 0
			}
		}
		return out
	}
	var walk func(n *node, parentLabel int)
	walk = func(n *node, parentLabel int) {
		h := hists[n]
		total := 0.0
		for _, v := range h {
			total += v
		}
		label := parentLabel
		if h != nil && total >= minWeight {
			label = argmax(clamp(h))
		}
		n.label = label
		if n.children != nil {
			for _, c := range n.children {
				walk(c, label)
			}
		}
		if n.left != nil {
			walk(n.left, label)
		}
		if n.right != nil {
			walk(n.right, label)
		}
	}
	rootHist := hists[t.root]
	rootLabel := t.root.label
	if rootHist != nil {
		rootLabel = argmax(clamp(rootHist))
	}
	walk(t.root, rootLabel)
	return nil
}

// Predict classifies a feature vector.
func (t *Tree) Predict(features []int32) int {
	n := t.root
	for n.feature >= 0 {
		if n.children != nil {
			child, ok := n.children[features[n.feature]]
			if !ok {
				return n.label
			}
			n = child
			continue
		}
		if features[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}
