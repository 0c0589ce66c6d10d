// Package minv implements m-invariance (Xiao & Tao, SIGMOD 2007 [22]), the
// deterministic answer to the re-publication problem the paper poses as
// future work (Section IX): when an evolving microdata is anonymized again
// after insertions and deletions, an adversary can intersect a victim's
// QI-group signatures across releases — the *intersection attack* — and
// shrink the candidate sensitive values release by release. m-invariance
// forbids exactly that: every release partitions the data into groups of m
// tuples with m distinct sensitive values (m-uniqueness), and every tuple
// alive in consecutive releases keeps the same signature (the set of its
// group's sensitive values), so the intersection never shrinks below m.
// Deletions that unbalance a signature bucket are absorbed by counterfeit
// tuples, published per the original paper's counterfeit statistics.
//
// Together with package repub (probabilistic composition for PG releases),
// this covers both directions of the paper's re-publication discussion.
package minv

import (
	"fmt"
	"math/rand"
	"sort"

	"pgpub/internal/dataset"
)

// Signature is a sorted set of sensitive codes — the value set of a group.
type Signature []int32

// key renders the signature as a map key.
func (s Signature) key() string {
	b := make([]byte, 0, 4*len(s))
	for _, v := range s {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// contains reports membership.
func (s Signature) contains(v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Group is one published QI-group of a release: the owner IDs of its real
// tuples plus counterfeit sensitive values injected to preserve signatures.
type Group struct {
	Owners       []int
	Counterfeits []int32
	Sig          Signature
}

// Release is one m-invariant publication round.
type Release struct {
	M      int
	Groups []Group
}

// State carries the signature ledger between releases.
type State struct {
	M    int
	sigs map[int]Signature // owner -> signature from the latest release
}

// NewState starts a fresh ledger for parameter m.
func NewState(m int) (*State, error) {
	if m < 2 {
		return nil, fmt.Errorf("minv: m must be at least 2, got %d", m)
	}
	return &State{M: m, sigs: map[int]Signature{}}, nil
}

// Publish produces the next m-invariant release for the current table
// (whose Owners identify individuals across releases) and updates the
// ledger. Owners seen before must still carry a sensitive value inside
// their recorded signature (the microdata's sensitive values are assumed
// stable per individual, the standard m-invariance setting).
func (st *State) Publish(cur *dataset.Table, rng *rand.Rand) (*Release, error) {
	if rng == nil {
		return nil, fmt.Errorf("minv: rng is required")
	}
	if cur.Len() == 0 {
		return nil, fmt.Errorf("minv: empty table")
	}
	rel := &Release{M: st.M}

	// Split rows into survivors (with a recorded signature) and newcomers.
	bySig := map[string][]int{} // signature key -> rows
	sigOf := map[string]Signature{}
	var newcomers []int
	for i := 0; i < cur.Len(); i++ {
		o := cur.Owner(i)
		sig, ok := st.sigs[o]
		if !ok {
			newcomers = append(newcomers, i)
			continue
		}
		if !sig.contains(cur.Sensitive(i)) {
			return nil, fmt.Errorf("minv: owner %d's value %d left its signature", o, cur.Sensitive(i))
		}
		bySig[sig.key()] = append(bySig[sig.key()], i)
		sigOf[sig.key()] = sig
	}

	// Survivors: per signature bucket, balance by value and fill holes with
	// counterfeits (the paper's division step).
	sigKeys := make([]string, 0, len(bySig))
	for k := range bySig {
		sigKeys = append(sigKeys, k)
	}
	sort.Strings(sigKeys)
	for _, k := range sigKeys {
		sig := sigOf[k]
		byValue := map[int32][]int{}
		for _, i := range bySig[k] {
			byValue[cur.Sensitive(i)] = append(byValue[cur.Sensitive(i)], i)
		}
		groups := 0
		for _, rows := range byValue {
			if len(rows) > groups {
				groups = len(rows)
			}
		}
		for gi := 0; gi < groups; gi++ {
			g := Group{Sig: sig}
			for _, v := range sig {
				rows := byValue[v]
				if gi < len(rows) {
					g.Owners = append(g.Owners, cur.Owner(rows[gi]))
				} else {
					g.Counterfeits = append(g.Counterfeits, v)
				}
			}
			rel.Groups = append(rel.Groups, g)
		}
	}

	// Newcomers: Anatomy-style bucketization into groups of m distinct
	// values; their group's value set becomes their signature.
	// Values are visited in ascending order, never in map order, so the
	// shuffles draw from rng in a fixed sequence and one seed gives one
	// release.
	byValue := map[int32][]int{}
	for _, i := range newcomers {
		byValue[cur.Sensitive(i)] = append(byValue[cur.Sensitive(i)], i)
	}
	values := make([]int32, 0, len(byValue))
	for v := range byValue {
		values = append(values, v)
	}
	sort.Slice(values, func(a, b int) bool { return values[a] < values[b] })
	for _, v := range values {
		rows := byValue[v]
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	}
	newcomerStart := len(rel.Groups)
	for {
		type bucket struct {
			v    int32
			rows []int
		}
		var nonEmpty []bucket
		for _, v := range values {
			if rows := byValue[v]; len(rows) > 0 {
				nonEmpty = append(nonEmpty, bucket{v, rows})
			}
		}
		if len(nonEmpty) == 0 {
			break
		}
		if len(nonEmpty) < st.M {
			// Residue: attach each leftover to a newcomer group whose
			// signature lacks its value, extending that signature (legal
			// only before the group's members enter the ledger, i.e. for
			// groups created this round).
			for _, b := range nonEmpty {
				for _, row := range b.rows {
					placed := false
					for gi := newcomerStart; gi < len(rel.Groups); gi++ {
						if !rel.Groups[gi].Sig.contains(b.v) {
							rel.Groups[gi].Owners = append(rel.Groups[gi].Owners, cur.Owner(row))
							sig := append(Signature(nil), rel.Groups[gi].Sig...)
							sig = append(sig, b.v)
							sort.Slice(sig, func(a, c int) bool { return sig[a] < sig[c] })
							rel.Groups[gi].Sig = sig
							placed = true
							break
						}
					}
					if !placed {
						return nil, fmt.Errorf("minv: newcomer value %d too frequent to keep groups %d-unique", b.v, st.M)
					}
				}
			}
			break
		}
		sort.Slice(nonEmpty, func(a, b int) bool {
			if len(nonEmpty[a].rows) != len(nonEmpty[b].rows) {
				return len(nonEmpty[a].rows) > len(nonEmpty[b].rows)
			}
			return nonEmpty[a].v < nonEmpty[b].v
		})
		g := Group{}
		var sig Signature
		for _, b := range nonEmpty[:st.M] {
			rows := byValue[b.v]
			row := rows[len(rows)-1]
			byValue[b.v] = rows[:len(rows)-1]
			g.Owners = append(g.Owners, cur.Owner(row))
			sig = append(sig, b.v)
		}
		sort.Slice(sig, func(a, b int) bool { return sig[a] < sig[b] })
		g.Sig = sig
		rel.Groups = append(rel.Groups, g)
	}

	// Update the ledger: owners present in this release carry their group's
	// signature forward; departed owners are forgotten.
	next := map[int]Signature{}
	for _, g := range rel.Groups {
		for _, o := range g.Owners {
			next[o] = g.Sig
		}
	}
	st.sigs = next
	return rel, nil
}

// Counterfeits returns the total counterfeit count of a release (the
// published counterfeit statistics).
func (r *Release) Counterfeits() int {
	n := 0
	for _, g := range r.Groups {
		n += len(g.Counterfeits)
	}
	return n
}

// Verify checks m-invariance of a release sequence given each release's
// owner→value oracle: (1) every group's value multiset (real + counterfeit)
// has exactly the group's signature as distinct values and at least M
// members; (2) owners alive in consecutive releases keep their signature.
func Verify(releases []*Release, tables []*dataset.Table) error {
	if len(releases) != len(tables) {
		return fmt.Errorf("minv: %d releases for %d tables", len(releases), len(tables))
	}
	prevSig := map[int]Signature{}
	for t, rel := range releases {
		valueOf := map[int]int32{}
		for i := 0; i < tables[t].Len(); i++ {
			valueOf[tables[t].Owner(i)] = tables[t].Sensitive(i)
		}
		curSig := map[int]Signature{}
		for gi, g := range rel.Groups {
			if len(g.Owners)+len(g.Counterfeits) < rel.M {
				return fmt.Errorf("minv: release %d group %d has %d members < m", t, gi, len(g.Owners)+len(g.Counterfeits))
			}
			seen := map[int32]bool{}
			for _, o := range g.Owners {
				v, ok := valueOf[o]
				if !ok {
					return fmt.Errorf("minv: release %d group %d owner %d absent from table", t, gi, o)
				}
				if seen[v] {
					return fmt.Errorf("minv: release %d group %d repeats value %d", t, gi, v)
				}
				if !g.Sig.contains(v) {
					return fmt.Errorf("minv: release %d group %d value %d outside signature", t, gi, v)
				}
				seen[v] = true
				curSig[o] = g.Sig
			}
			for _, v := range g.Counterfeits {
				if seen[v] {
					return fmt.Errorf("minv: release %d group %d counterfeit repeats value %d", t, gi, v)
				}
				if !g.Sig.contains(v) {
					return fmt.Errorf("minv: release %d group %d counterfeit value %d outside signature", t, gi, v)
				}
				seen[v] = true
			}
			if len(seen) != len(g.Sig) {
				return fmt.Errorf("minv: release %d group %d covers %d of %d signature values", t, gi, len(seen), len(g.Sig))
			}
		}
		for o, sig := range curSig {
			if old, ok := prevSig[o]; ok && old.key() != sig.key() {
				return fmt.Errorf("minv: owner %d changed signature between releases %d and %d", o, t-1, t)
			}
		}
		prevSig = curSig
	}
	return nil
}

// IntersectionAttack intersects a victim's group signatures across the
// releases they appear in — the candidate sensitive values a longitudinal
// adversary retains. Missing releases are skipped. ok is false when the
// victim never appears.
func IntersectionAttack(releases []*Release, victim int) (Signature, bool) {
	var cand map[int32]bool
	for _, rel := range releases {
		for _, g := range rel.Groups {
			for _, o := range g.Owners {
				if o != victim {
					continue
				}
				if cand == nil {
					cand = map[int32]bool{}
					for _, v := range g.Sig {
						cand[v] = true
					}
				} else {
					next := map[int32]bool{}
					for _, v := range g.Sig {
						if cand[v] {
							next[v] = true
						}
					}
					cand = next
				}
			}
		}
	}
	if cand == nil {
		return nil, false
	}
	out := make(Signature, 0, len(cand))
	for v := range cand {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, true
}
