package mining

import (
	"fmt"

	"pgpub/internal/dataset"
	"pgpub/internal/perturb"
	"pgpub/internal/pg"
)

// This file adapts microdata tables and PG publications to the generic tree
// grower, implementing the three utility competitors of Section VII-B:
// optimistic and pessimistic (trees over raw QI codes) and PG (a tree over
// generalized QI codes with G-weighting and perturbation reconstruction).

// TableDataset builds a training set from a microdata table: features are
// the raw QI codes, the class of a row is classOf(sensitive code). Ordered
// flags follow the attributes' kinds.
func TableDataset(t *dataset.Table, classOf func(int32) int, numClasses int) (*Dataset, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("mining: empty table")
	}
	nv := make([]int, t.Schema.D())
	ordered := make([]bool, t.Schema.D())
	for j, a := range t.Schema.QI {
		nv[j] = a.Size()
		ordered[j] = a.Kind == dataset.Continuous
	}
	ds, err := NewDataset(nv, ordered, numClasses)
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.Len(); i++ {
		c := classOf(t.Sensitive(i))
		if err := ds.Add(t.QIVector(i), c, 1); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// TableClassifier couples a tree with raw-QI feature extraction.
type TableClassifier struct {
	Tree *Tree
}

// TrainTable grows a tree over a microdata table (the optimistic and
// pessimistic yardsticks; pessimistic passes a pre-randomized table).
func TrainTable(t *dataset.Table, classOf func(int32) int, numClasses int, cfg Config) (*TableClassifier, error) {
	ds, err := TableDataset(t, classOf, numClasses)
	if err != nil {
		return nil, err
	}
	tree, err := Build(ds, cfg)
	if err != nil {
		return nil, err
	}
	return &TableClassifier{Tree: tree}, nil
}

// Predict classifies a raw QI vector.
func (c *TableClassifier) Predict(qi []int32) int { return c.Tree.Predict(qi) }

// PGClassifier couples a tree grown on D* with prediction over raw QI
// vectors.
type PGClassifier struct {
	Tree *Tree
}

// TrainPG grows the reconstruction-weighted tree of DESIGN.md §3 on a PG
// publication: each published tuple becomes one training row whose feature j
// is the midpoint code of its generalized box on attribute j (an ordered
// spatial scale), weighted by its stratum size G. Class histograms are
// corrected by inverting the uniform perturbation with the class-fraction
// vector (classFrac[c] = |{x : classOf(x) = c}| / |U^s|). When the
// publication's P is 0 the observed values carry no signal and
// reconstruction is skipped (the tree degenerates gracefully).
//
// Because box midpoints live on the original code scale, the resulting tree
// classifies raw QI vectors directly — Predict needs no recoding step.
func TrainPG(pub *pg.Published, classOf func(int32) int, numClasses int, cfg Config) (*PGClassifier, error) {
	if pub.Len() == 0 {
		return nil, fmt.Errorf("mining: empty publication")
	}
	d := pub.Schema.D()
	nv := make([]int, d)
	ordered := make([]bool, d)
	for j := 0; j < d; j++ {
		nv[j] = pub.Schema.QI[j].Size()
		ordered[j] = true // midpoints are positions on the code scale
	}
	// Honest-tree split: even rows select the structure, odd rows label it.
	// Reconstruction amplifies noise by 1/P, and split selection maximizes
	// over many noisy candidates (a winner's curse); labelling leaves with
	// data independent of the split choice removes the resulting bias.
	structureDS, err := NewDataset(nv, ordered, numClasses)
	if err != nil {
		return nil, err
	}
	labelDS, err := NewDataset(nv, ordered, numClasses)
	if err != nil {
		return nil, err
	}
	c := pub.Columns()
	for i := 0; i < c.N; i++ {
		target := structureDS
		if i%2 == 1 && c.N > 1 {
			target = labelDS
		}
		if err := target.Add(boxMidpoints(c, i), classOf(c.Value[i]), float64(c.G[i])); err != nil {
			return nil, err
		}
	}

	// Reconstruction divides observed counts by P, amplifying sampling noise
	// by ~1/P; leaves must hold enough weight for the corrected histograms
	// to be trustworthy. A leaf of weight W holds ~W/K published rows, so
	// the reconstructed class fraction has standard error ~sqrt(K/W)/(2P);
	// keeping it under ~0.1 needs W ≳ 25·K/P². Cap at a sixteenth of the
	// total weight so shallow trees remain possible on small publications.
	if cfg.MinLeafWeight <= 0 && pub.P > 0 {
		w := 25 * float64(pub.K) / (pub.P * pub.P)
		if w < 50 {
			w = 50
		}
		cfg.MinLeafWeight = w
		// When the floor exceeds half the total weight the tree degenerates
		// to the (safe) majority-class root — the correct behaviour when
		// the publication is too small for its noise level.
	}
	if pub.P > 0 && cfg.Adjust == nil {
		frac, err := classFractions(pub.Schema.SensitiveDomain(), classOf, numClasses)
		if err != nil {
			return nil, err
		}
		p := pub.P
		cfg.Adjust = func(obs []float64) []float64 {
			rec, err := perturb.ReconstructCategories(obs, frac, p)
			if err != nil {
				return obs
			}
			return rec
		}
	}
	// The structure half holds ~half the weight; scale the floor with it.
	structureCfg := cfg
	structureCfg.MinLeafWeight = cfg.MinLeafWeight / 2
	tree, err := Build(structureDS, structureCfg)
	if err != nil {
		return nil, err
	}
	if labelDS.Len() > 0 {
		if err := tree.Relabel(labelDS, cfg.MinLeafWeight/2, cfg.Adjust); err != nil {
			return nil, err
		}
	}
	return &PGClassifier{Tree: tree}, nil
}

// classFractions computes the fraction of U^s mapped to each class.
func classFractions(domain int, classOf func(int32) int, numClasses int) ([]float64, error) {
	frac := make([]float64, numClasses)
	for x := int32(0); int(x) < domain; x++ {
		c := classOf(x)
		if c < 0 || c >= numClasses {
			return nil, fmt.Errorf("mining: classOf(%d) = %d out of [0,%d)", x, c, numClasses)
		}
		frac[c]++
	}
	for c := range frac {
		frac[c] /= float64(domain)
	}
	return frac, nil
}

// Predict classifies a raw QI vector.
func (c *PGClassifier) Predict(qi []int32) int { return c.Tree.Predict(qi) }

// boxMidpoints is published row i's feature vector: the midpoint code of its
// generalized box on every QI attribute.
func boxMidpoints(c *pg.RowColumns, i int) []int32 {
	feats := make([]int32, c.D)
	for j := range feats {
		feats[j] = (c.Lo[j*c.N+i] + c.Hi[j*c.N+i]) / 2
	}
	return feats
}

// Accuracy evaluates a raw-QI classifier against a microdata table: the
// fraction of tuples whose predicted class matches classOf(true sensitive),
// the paper's classification-accuracy measure (Section VII-B).
func Accuracy(predict func([]int32) int, t *dataset.Table, classOf func(int32) int) float64 {
	if t.Len() == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < t.Len(); i++ {
		if predict(t.QIVector(i)) == classOf(t.Sensitive(i)) {
			correct++
		}
	}
	return float64(correct) / float64(t.Len())
}
