package snapshot

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/query"
)

// The kd walk resolves a partial leaf in a fixed scratch of the builder's
// leaf size (8 entries), recurses once per tree level and walks a subtree
// once per path to it, so the decoder refuses the index shapes the builder
// never writes: a leaf over 8 entries, a tree over 64 levels and a node
// with two parents. These tests write such shapes into a valid image under
// fresh CRCs; the first two compact images are also FuzzNewMapped seeds
// (testdata/fuzz/FuzzNewMapped/leaf-over-8 and deep-tree).

// Block numbers in v2Blocks: the first and the last node array, and the
// grid tables.
const (
	blockNodeLo  = 11
	blockNodeEHi = 19
	blockGridSat = 20
)

// shapeImage is the compact image of a 36-row kd release over two small
// attributes: 12 entries under three nodes, two leaves of 6 and the root.
func shapeImage(t testing.TB) []byte {
	t.Helper()
	s := dataset.MustSchema([]*dataset.Attribute{
		dataset.MustIntAttribute("q0", 0, 3), dataset.MustIntAttribute("q1", 0, 2),
	}, dataset.MustIntAttribute("s", 0, 2))
	tab := dataset.NewTable(s)
	for i := 0; i < 36; i++ {
		tab.MustAppend([]int32{int32(i % 4), int32(i / 4 % 3), int32(i % 3)})
	}
	hiers := []*hierarchy.Hierarchy{hierarchy.MustInterval(4, 2, 4), hierarchy.MustFlat(3)}
	pub, err := pg.Publish(tab, hiers, pg.Config{K: 2, P: 0.25, Algorithm: pg.KD, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, pub, nil, nil); err != nil {
		t.Fatal(err)
	}
	return compact(buf.Bytes())
}

// splitCompact cuts a compact image into its header and metadata, and its
// block payloads.
func splitCompact(img []byte) (head []byte, payloads [][]byte) {
	n := int(binary.LittleEndian.Uint64(img[8:16]))
	head, rest := bytes.Clone(img[:headerLen+n]), img[headerLen+n:]
	for range v2Blocks {
		sz := binary.LittleEndian.Uint64(rest)
		payloads = append(payloads, bytes.Clone(rest[prefixLen:prefixLen+sz]))
		rest = rest[prefixLen+sz:]
	}
	return head, payloads
}

// joinCompact is splitCompact's inverse.
func joinCompact(head []byte, payloads [][]byte) []byte {
	out := bytes.Clone(head)
	for _, p := range payloads {
		out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

func i32Payload(vs []int32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// oversizedLeafImage widens the first leaf of shapeImage to entries [0, 9),
// one more than a leaf holds, and drops the grid tables, so a query that
// restricts an attribute reaches the leaf through the walk.
func oversizedLeafImage(t testing.TB) []byte {
	head, payloads := splitCompact(shapeImage(t))
	ehi := payloads[blockNodeEHi]
	if len(ehi) != 3*4 || binary.LittleEndian.Uint32(ehi) != 6 {
		t.Fatalf("node.ehi = %v, want the first leaf to end at entry 6", ehi)
	}
	binary.LittleEndian.PutUint32(ehi, 9)
	payloads[blockGridSat] = nil
	return joinCompact(head, payloads)
}

// chainImage replaces shapeImage's tree with a chain of internal nodes
// levels high: leaves 0..levels-1 with empty entry ranges, then internal
// node levels+j over the previous internal node (leaf 0 for the first) and
// leaf j+1. Every node has one parent, every link points back, and the
// last internal node is the root. Every node bound is the whole domain and
// the grid tables are dropped, so a query that restricts an attribute
// walks the chain to its bottom. With share, the second internal node
// takes the first one's leaf as its right child too.
func chainImage(t testing.TB, levels int, share bool) []byte {
	head, payloads := splitCompact(shapeImage(t))
	const d, dom = 2, 3
	internal := levels - 1
	nN := 2*internal + 1
	left, right := make([]int32, nN), make([]int32, nN)
	for i := range left {
		left[i], right[i] = -1, -1
	}
	for j := 0; j < internal; j++ {
		ni := internal + 1 + j
		left[ni], right[ni] = int32(ni-1), int32(j+1)
	}
	left[internal+1] = 0
	if share {
		right[internal+2] = right[internal+1]
	}
	zeros := func(n int) []byte { return make([]byte, n) }
	payloads[blockNodeLo] = zeros(4 * d * nN) // node.lo
	hi := make([]int32, d*nN)                 // dim-major: q0's top code 3, then q1's 2
	for i := range hi {
		hi[i] = 3 - int32(i/nN)
	}
	payloads[blockNodeLo+1] = i32Payload(hi)
	payloads[blockNodeLo+2] = zeros(8 * nN)       // node.g
	payloads[blockNodeLo+3] = zeros(8 * nN * dom) // node.hist
	payloads[blockNodeLo+4] = zeros(8 * nN * (dom + 1))
	payloads[blockNodeLo+5] = i32Payload(left)
	payloads[blockNodeLo+6] = i32Payload(right)
	payloads[blockNodeLo+7] = zeros(4 * nN) // node.elo
	payloads[blockNodeEHi] = zeros(4 * nN)
	payloads[blockGridSat] = nil
	// The root is the i32 before the block count and the directory, at
	// the end of the metadata.
	rootAt := len(head) - len(v2Blocks)*dirEntryLen - 4 - 4
	binary.LittleEndian.PutUint32(head[rootAt:], uint32(nN-1))
	return joinCompact(head, payloads)
}

// TestRejectsUnservableIndexShapes checks that every reader refuses a leaf
// of 9 entries, a tree of 65 levels and a shared child, and that a tree of
// exactly 64 levels opens and serves.
func TestRejectsUnservableIndexShapes(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		img        []byte
	}{
		{"leaf of 9 entries", "holds 9 entries, limit 8", oversizedLeafImage(t)},
		{"tree of 65 levels", "65 levels high, limit 64", chainImage(t, 65, false)},
		{"shared child", "shares a child", chainImage(t, 8, true)},
	} {
		img := expand(tc.img)
		if _, err := newMapped(bytes.Clone(img), false); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: newMapped: %v, want %q", tc.name, err, tc.want)
		}
		if _, err := Read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Read: %v, want %q", tc.name, err, tc.want)
		}
		path := filepath.Join(t.TempDir(), "bad.pgsnap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenMapped(path); err == nil {
			m.Close()
			t.Errorf("%s: OpenMapped accepted it", tc.name)
		}
	}

	m, err := newMapped(expand(chainImage(t, 64, false)), false)
	if err != nil {
		t.Fatalf("tree of 64 levels refused: %v", err)
	}
	q := query.CountQuery{QI: []query.Range{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 1}}}
	if _, err := m.Index.Count(q); err != nil {
		t.Fatalf("tree of 64 levels: Count: %v", err)
	}
}
