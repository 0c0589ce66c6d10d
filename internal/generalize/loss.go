package generalize

// Discernibility is the discernibility metric of Bayardo & Agrawal [1]:
// the sum over QI-groups of |G|^2. Smaller is better; the identity recoding
// of an all-distinct table achieves |D|. It is the loss the full-domain
// search ranks level vectors by (computed there from group sizes alone, see
// sizeScore).
func Discernibility(g *Groups) float64 {
	s := 0.0
	for _, rows := range g.Rows {
		s += float64(len(rows)) * float64(len(rows))
	}
	return s
}
