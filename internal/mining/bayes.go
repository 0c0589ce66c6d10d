package mining

import (
	"fmt"
	"math"

	"pgpub/internal/perturb"
	"pgpub/internal/pg"
)

// nbAlpha is the Laplace smoothing pseudo-count, and nbBins the number of
// equal-width bins ordered features are discretized into; categorical
// features keep their codes.
const (
	nbAlpha = 1.0
	nbBins  = 10
)

// NBConfig tunes the naive-Bayes classifier.
type NBConfig struct {
	// Adjust optionally corrects observed class histograms, exactly like
	// Config.Adjust for trees (the perturbation-reconstruction hook).
	Adjust func(obs []float64) []float64
}

// NB is a weighted naive-Bayes classifier over a Dataset's feature space:
// P(class | features) ∝ P(class) · Π_f P(bin_f | class), with all class
// histograms passed through the reconstruction hook before normalization.
// It is the second mining modality for D* — where trees partition, NB
// factorizes, and for heavily perturbed data its per-feature aggregation
// often wins because every histogram pools all rows.
type NB struct {
	numClasses int
	bins       []int // bins per feature
	binWidth   []int // code-to-bin divisor per feature (1 for categorical)
	logPrior   []float64
	logCond    [][]float64 // per feature: bin*numClasses log-probabilities
}

// TrainNB fits the classifier on a dataset.
func TrainNB(ds *Dataset, cfg NBConfig) (*NB, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("mining: empty dataset")
	}
	nf := len(ds.NumValues)
	nb := &NB{
		numClasses: ds.NumClasses,
		bins:       make([]int, nf),
		binWidth:   make([]int, nf),
		logPrior:   make([]float64, ds.NumClasses),
		logCond:    make([][]float64, nf),
	}
	for f := 0; f < nf; f++ {
		nb.binWidth[f] = 1
		nb.bins[f] = ds.NumValues[f]
		if ds.Ordered[f] && ds.NumValues[f] > nbBins {
			nb.binWidth[f] = (ds.NumValues[f] + nbBins - 1) / nbBins
			nb.bins[f] = (ds.NumValues[f] + nb.binWidth[f] - 1) / nb.binWidth[f]
		}
	}

	adjust := func(h []float64) []float64 {
		if cfg.Adjust == nil {
			return h
		}
		out := cfg.Adjust(append([]float64(nil), h...))
		for i, v := range out {
			if v < 0 || math.IsNaN(v) {
				out[i] = 0
			}
		}
		return out
	}

	// Class prior.
	prior := make([]float64, ds.NumClasses)
	for i := range ds.rows {
		prior[ds.class[i]] += ds.weights[i]
	}
	prior = adjust(prior)
	total := 0.0
	for _, v := range prior {
		total += v
	}
	for c := range prior {
		nb.logPrior[c] = math.Log((prior[c] + nbAlpha) / (total + nbAlpha*float64(ds.NumClasses)))
	}

	// Per-feature conditionals.
	for f := 0; f < nf; f++ {
		counts := make([][]float64, nb.bins[f])
		for b := range counts {
			counts[b] = make([]float64, ds.NumClasses)
		}
		for i := range ds.rows {
			b := int(ds.rows[i][f]) / nb.binWidth[f]
			counts[b][ds.class[i]] += ds.weights[i]
		}
		classTotals := make([]float64, ds.NumClasses)
		for b := range counts {
			counts[b] = adjust(counts[b])
			for c, v := range counts[b] {
				classTotals[c] += v
			}
		}
		cond := make([]float64, nb.bins[f]*ds.NumClasses)
		for b := range counts {
			for c := 0; c < ds.NumClasses; c++ {
				cond[b*ds.NumClasses+c] = math.Log(
					(counts[b][c] + nbAlpha) /
						(classTotals[c] + nbAlpha*float64(nb.bins[f])))
			}
		}
		nb.logCond[f] = cond
	}
	return nb, nil
}

// Predict classifies a feature vector.
func (nb *NB) Predict(features []int32) int {
	best, bi := math.Inf(-1), 0
	for c := 0; c < nb.numClasses; c++ {
		score := nb.logPrior[c]
		for f, v := range features {
			b := int(v) / nb.binWidth[f]
			if b >= nb.bins[f] {
				b = nb.bins[f] - 1
			}
			if b < 0 {
				b = 0
			}
			score += nb.logCond[f][b*nb.numClasses+c]
		}
		if score > best {
			best, bi = score, c
		}
	}
	return bi
}

// NBPGClassifier couples a naive-Bayes model with raw-QI prediction, the
// counterpart of PGClassifier.
type NBPGClassifier struct {
	Model *NB
}

// TrainNBPG fits naive Bayes on a PG publication with the same feature
// construction as TrainPG (box midpoints, G weights) and the perturbation-
// reconstruction hook. Unlike trees, NB needs no honesty split: the model
// does not select structure from the noisy histograms, it only averages
// them, so the winner's curse does not arise.
func TrainNBPG(pub *pg.Published, classOf func(int32) int, numClasses int, cfg NBConfig) (*NBPGClassifier, error) {
	if pub.Len() == 0 {
		return nil, fmt.Errorf("mining: empty publication")
	}
	d := pub.Schema.D()
	nv := make([]int, d)
	ordered := make([]bool, d)
	for j := 0; j < d; j++ {
		nv[j] = pub.Schema.QI[j].Size()
		ordered[j] = true
	}
	ds, err := NewDataset(nv, ordered, numClasses)
	if err != nil {
		return nil, err
	}
	c := pub.Columns()
	for i := 0; i < c.N; i++ {
		if err := ds.Add(boxMidpoints(c, i), classOf(c.Value[i]), float64(c.G[i])); err != nil {
			return nil, err
		}
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
	model, err := TrainNB(ds, cfg)
	if err != nil {
		return nil, err
	}
	return &NBPGClassifier{Model: model}, nil
}

// Predict classifies a raw QI vector.
func (c *NBPGClassifier) Predict(qi []int32) int { return c.Model.Predict(qi) }
