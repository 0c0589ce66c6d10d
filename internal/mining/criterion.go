package mining

import (
	"fmt"
	"math"
)

// Criterion selects the split-impurity measure.
type Criterion int

const (
	// Gini is the default impurity (CART-style).
	Gini Criterion = iota
	// Entropy uses Shannon entropy (ID3/C4.5-style).
	Entropy
)

// String implements fmt.Stringer.
func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case Entropy:
		return "entropy"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// impurity dispatches on the criterion; returns the impurity and total mass.
func impurity(h []float64, c Criterion) (float64, float64) {
	if c == Gini {
		return gini(h)
	}
	total := 0.0
	for _, v := range h {
		total += v
	}
	if total == 0 {
		return 0, 0
	}
	e := 0.0
	for _, v := range h {
		if v == 0 {
			continue
		}
		p := v / total
		e -= p * math.Log2(p)
	}
	return e, total
}
