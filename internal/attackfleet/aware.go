package attackfleet

import (
	"fmt"
	"sort"

	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/par"
)

// This file implements the transparent-anonymization adversary (Xiao, Tao &
// Koudas): anonymization algorithms are public, so an adversary who holds ℰ
// can rerun Phase 2 and recover the published partition without a single
// query. That works whenever the algorithm reads only what the adversary
// has — the QI columns and group sizes:
//
//	kd           splits on QI spans and medians only           → exact replay
//	full-domain  k-anonymity principle + discernibility loss,
//	             both functions of group sizes                 → exact replay
//	tds          information-gain scores read the (perturbed)
//	             sensitive column, which ℰ does not contain    → not replayable
//
// For TDS the adversary instead recovers the published recoding itself over
// HTTP: a cut-based recoding is global, so each dimension's cut is one
// antichain of the public hierarchy, and each candidate node can be tested
// with a handful of served queries (recoverCuts below). Either way the
// adversary ends with the complete partition — every owner's group, box and
// group size — which step A1 then reads off locally.

// groupModel is the aware adversary's reconstruction of the whole Phase-2
// partition over ℰ.
type groupModel struct {
	boxes   []generalize.Box
	members [][]int // group -> owner IDs, ascending
	of      []int   // owner ID -> group index
}

func newGroupModel(n int, boxes []generalize.Box, members [][]int) *groupModel {
	m := &groupModel{boxes: boxes, members: members, of: make([]int, n)}
	for gi, ids := range members {
		sort.Ints(ids)
		for _, id := range ids {
			m.of[id] = gi
		}
	}
	return m
}

// crucialOf reads the victim's crucial-tuple facts off the reconstructed
// partition: the group size and the candidate set in ascending ID order.
func (m *groupModel) crucialOf(victim int) (box generalize.Box, g int, candidates []int) {
	gi := m.of[victim]
	ids := m.members[gi]
	candidates = make([]int, 0, len(ids)-1)
	for _, id := range ids {
		if id != victim {
			candidates = append(candidates, id)
		}
	}
	return m.boxes[gi], len(ids), candidates
}

// adversaryTable rebuilds a target's Phase-2 input as the adversary knows
// it: the owners' QI vectors (in ID order) with a zeroed sensitive column.
// The replayable algorithms never read that column, so the zero stands in
// for the perturbed values the adversary cannot see. Against a shard the
// owners are its round-robin subset of ℰ — the adversary reproduces the
// publisher's partition exactly because the assignment is public.
func adversaryTable(ext *attack.External, owners []int) *dataset.Table {
	s := ext.Table().Schema
	t := dataset.NewTable(s)
	for _, id := range owners {
		row := make([]int32, s.Width())
		copy(row, ext.QIOf(id))
		t.MustAppend(row)
	}
	return t
}

// replayPhase2 reruns the known Phase-2 algorithm on the adversary's table
// for one target. Owner IDs equal microdata row indices (the fleet's ℰ lists
// exactly the microdata owners), and the algorithm's local row indices map
// back through owners, so its row groups become identity groups directly.
func replayPhase2(ext *attack.External, hiers []*hierarchy.Hierarchy, algorithm string, k, workers int, owners []int) (*groupModel, error) {
	t := adversaryTable(ext, owners)
	remap := func(local [][]int) [][]int {
		for _, rows := range local {
			for i, l := range rows {
				rows[i] = owners[l]
			}
		}
		return local
	}
	switch algorithm {
	case "kd":
		res, err := generalize.KDPartitionParallel(t, k, par.SpawnDepth(workers))
		if err != nil {
			return nil, fmt.Errorf("attackfleet: replaying kd: %w", err)
		}
		return newGroupModel(ext.Len(), res.Cells, remap(res.Rows)), nil
	case "full-domain":
		res, err := generalize.SearchFullDomain(t, hiers, generalize.FullDomainConfig{K: k})
		if err != nil {
			return nil, fmt.Errorf("attackfleet: replaying full-domain: %w", err)
		}
		boxes := make([]generalize.Box, res.Groups.Len())
		for i, key := range res.Groups.Keys {
			boxes[i] = res.Recoding.BoxOf(key)
		}
		return newGroupModel(ext.Len(), boxes, remap(res.Groups.Rows)), nil
	default:
		return nil, fmt.Errorf("attackfleet: algorithm %q is not replayable", algorithm)
	}
}

// recoverCuts reconstructs a cut-based recoding's global cuts over HTTP —
// the cuts of this runner's target, from its owners' boxes alone (pinned to
// the target's shard when the release is sharded). Per dimension it
// descends the public hierarchy from the root: a node v is in the cut iff,
// for every owner w whose dim-j value v covers, w's box spans exactly v's
// leaf range in dimension j. Each candidate node is tested through up to
// three witnesses picked from distinct regions of v's range; a witness
// passes when interior point fingerprints across the range all match its
// own and both segment queries scale linearly with the span. The recovery
// runs serially (before the victim fan-out), so its query sequence is
// deterministic.
func (r *runner) recoverCuts() (*generalize.Recoding, error) {
	d := r.schema.D()
	cuts := make([]*hierarchy.Cut, d)
	fps := make(map[int]fingerprint) // owner -> own-point fingerprint, shared across dims
	for j := 0; j < d; j++ {
		h := r.hiers[j]
		// Owners sorted by their dim-j coordinate, for range lookups and
		// witness spreading.
		ids := make([]int, len(r.owners))
		copy(ids, r.owners)
		sort.Slice(ids, func(a, b int) bool {
			va, vb := r.ext.QIOf(ids[a])[j], r.ext.QIOf(ids[b])[j]
			if va != vb {
				return va < vb
			}
			return ids[a] < ids[b]
		})
		coords := make([]int32, len(ids))
		for i, id := range ids {
			coords[i] = r.ext.QIOf(id)[j]
		}

		var nodes []int32
		var walk func(v int32) error
		walk = func(v int32) error {
			lo, hi := h.Range(v)
			a := sort.Search(len(coords), func(i int) bool { return coords[i] >= lo })
			b := sort.Search(len(coords), func(i int) bool { return coords[i] > hi })
			if a == b || h.IsLeaf(v) {
				// No owner to witness the node (no box exists there), or the
				// cut cannot go below a leaf: accept as-is.
				nodes = append(nodes, v)
				return nil
			}
			ok, err := r.cutNodeHolds(j, v, ids[a:b], fps)
			if err != nil {
				return err
			}
			if ok {
				nodes = append(nodes, v)
				return nil
			}
			for _, c := range h.Children(v) {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(h.Root()); err != nil {
			return nil, err
		}
		cut, err := hierarchy.NewCut(h, nodes)
		if err != nil {
			return nil, fmt.Errorf("attackfleet: recovered dim-%d nodes do not form a cut: %w", j, err)
		}
		cuts[j] = cut
		r.sh.cutNodes.Add(int64(len(nodes)))
		r.sh.met.cutNodes.Add(int64(len(nodes)))
	}
	return generalize.NewRecoding(r.schema, r.hiers, cuts)
}

// cutNodeHolds tests one candidate cut node v of dimension j against up to
// three witnesses drawn from the extremes and middle of v's covered owners.
// A node above the true cut fails unless every probe of every witness
// collides bitwise with a look-alike box — the probability of which shrinks
// geometrically with each witness.
func (r *runner) cutNodeHolds(j int, v int32, covered []int, fps map[int]fingerprint) (bool, error) {
	h := r.hiers[j]
	lo, hi := h.Range(v)
	span := h.Span(v)
	witnesses := []int{covered[0]}
	if len(covered) > 2 {
		witnesses = append(witnesses, covered[len(covered)/2])
	}
	if len(covered) > 1 {
		witnesses = append(witnesses, covered[len(covered)-1])
	}
	seen := map[int]bool{}
	for _, w := range witnesses {
		if seen[w] {
			continue
		}
		seen[w] = true
		wq := r.ext.QIOf(w)
		fp, ok := fps[w]
		if !ok {
			var err error
			if fp, err = r.fingerprintAt(wq, -1, 0); err != nil {
				return false, err
			}
			fps[w] = fp
		}
		if fp.naive == 0 {
			return false, fmt.Errorf("attackfleet: owner %d has no served box", w)
		}
		// Interior fingerprints: endpoints plus two interior points of v's
		// range must all sit in the witness's box.
		probes := []int32{lo, lo + int32(span/3), lo + int32(2*span/3), hi}
		for _, x := range probes {
			if x == wq[j] {
				continue
			}
			g, err := r.fingerprintAt(wq, j, x)
			if err != nil {
				return false, err
			}
			if !g.equal(fp) {
				return false, nil
			}
		}
		ok2, err := r.verifySegment(wq, j, lo, hi, fp)
		if err != nil {
			return false, err
		}
		if !ok2 {
			return false, nil
		}
	}
	return true, nil
}

// modelFromRecoding groups a target's owners under a recovered recoding —
// the cut-based counterpart of replayPhase2's output.
func modelFromRecoding(ext *attack.External, rec *generalize.Recoding, owners []int) *groupModel {
	type group struct {
		box generalize.Box
		ids []int
	}
	byKey := map[string]*group{}
	var order []string
	d := ext.Table().Schema.D()
	gen := make([]int32, d)
	for _, id := range owners {
		rec.GeneralizeInto(gen, ext.QIOf(id))
		key := string(int32sToBytes(gen))
		g, ok := byKey[key]
		if !ok {
			g = &group{box: rec.BoxOf(gen)}
			byKey[key] = g
			order = append(order, key)
		}
		g.ids = append(g.ids, id)
	}
	boxes := make([]generalize.Box, len(order))
	members := make([][]int, len(order))
	for i, key := range order {
		boxes[i] = byKey[key].box
		members[i] = byKey[key].ids
	}
	return newGroupModel(ext.Len(), boxes, members)
}

func int32sToBytes(v []int32) []byte {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return b
}
