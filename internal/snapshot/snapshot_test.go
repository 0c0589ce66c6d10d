package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pgpub/internal/dataset"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
	"pgpub/internal/sal"
)

func hospitalHiers(s *dataset.Schema) []*hierarchy.Hierarchy {
	return []*hierarchy.Hierarchy{
		hierarchy.MustInterval(s.QI[0].Size(), 5, 20),
		hierarchy.MustFlat(s.QI[1].Size()),
		hierarchy.MustInterval(s.QI[2].Size(), 5, 20),
	}
}

// publishHospital produces one publication per Phase-2 algorithm over the
// paper's hospital microdata.
func publishHospital(t *testing.T, alg pg.Algorithm) *pg.Published {
	t.Helper()
	d := dataset.Hospital()
	pub, err := pg.Publish(d, hospitalHiers(d.Schema), pg.Config{
		K: 2, P: 0.25, Algorithm: alg, Seed: 7,
	})
	if err != nil {
		t.Fatalf("%v: Publish: %v", alg, err)
	}
	return pub
}

// TestRoundTripAllAlgorithms is the codec's core property: for every Phase-2
// algorithm, load(save(pub)) reproduces the publication exactly — same
// WriteCSV bytes, same Metadata, same rows, same recoding — and re-saving
// the loaded publication reproduces the file bytes.
func TestRoundTripAllAlgorithms(t *testing.T) {
	for _, alg := range []pg.Algorithm{pg.KD, pg.TDS, pg.FullDomain} {
		pub := publishHospital(t, alg)
		meta, err := pub.Metadata(0.1, 0.2)
		if err != nil {
			t.Fatalf("%v: Metadata: %v", alg, err)
		}

		var buf bytes.Buffer
		if err := Write(&buf, pub, meta.Guarantee, nil); err != nil {
			t.Fatalf("%v: Write: %v", alg, err)
		}
		rel, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: Read: %v", alg, err)
		}
		got, gotG := rel.Pub, rel.Guarantee

		// Scalar parameters and rows.
		if got.Algorithm != pub.Algorithm || got.P != pub.P || got.K != pub.K {
			t.Fatalf("%v: parameters drifted: %v/%v p=%v/%v k=%d/%d",
				alg, got.Algorithm, pub.Algorithm, got.P, pub.P, got.K, pub.K)
		}
		if !reflect.DeepEqual(got.Columns(), pub.Columns()) {
			t.Fatalf("%v: rows drifted across the round trip", alg)
		}

		// WriteCSV output must be byte-identical.
		var origCSV, loadedCSV strings.Builder
		if err := pub.WriteCSV(&origCSV); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteCSV(&loadedCSV); err != nil {
			t.Fatal(err)
		}
		if origCSV.String() != loadedCSV.String() {
			t.Fatalf("%v: WriteCSV differs after the round trip", alg)
		}

		// Metadata (including the guarantee block) must be reproducible from
		// the loaded publication alone.
		gotMeta, err := got.Metadata(0.1, 0.2)
		if err != nil {
			t.Fatalf("%v: Metadata on loaded publication: %v", alg, err)
		}
		if !reflect.DeepEqual(gotMeta, meta) {
			t.Fatalf("%v: metadata drifted: %+v vs %+v", alg, gotMeta, meta)
		}
		if !reflect.DeepEqual(gotG, meta.Guarantee) {
			t.Fatalf("%v: stored guarantee block drifted: %+v vs %+v", alg, gotG, meta.Guarantee)
		}

		// Recoding: present exactly for the cut-based algorithms, and
		// structurally identical.
		if (pub.Recoding == nil) != (got.Recoding == nil) {
			t.Fatalf("%v: recoding presence drifted", alg)
		}
		if pub.Recoding != nil {
			for j := range pub.Recoding.Hierarchies {
				if !reflect.DeepEqual(pub.Recoding.Hierarchies[j].Parents(), got.Recoding.Hierarchies[j].Parents()) {
					t.Fatalf("%v: hierarchy %d drifted", alg, j)
				}
				if !reflect.DeepEqual(pub.Recoding.Cuts[j].Nodes(), got.Recoding.Cuts[j].Nodes()) {
					t.Fatalf("%v: cut %d drifted", alg, j)
				}
			}
		}

		// The encoding is deterministic: re-saving the loaded publication
		// reproduces the original file bytes.
		var again bytes.Buffer
		if err := Write(&again, got, gotG, nil); err != nil {
			t.Fatalf("%v: re-Write: %v", alg, err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatalf("%v: save(load(save(pub))) is not byte-identical", alg)
		}
	}
}

// TestRoundTripSAL exercises the codec on the full 8-attribute SAL schema
// (large label spaces, KD boxes) and a certified guarantee block.
func TestRoundTripSAL(t *testing.T) {
	d, err := sal.Generate(600, 11)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, pub, &pg.GuaranteeMetadata{Lambda: 0.1, Rho1: 0.2, Rho2: 0.45, Delta: 0.24}, nil); err != nil {
		t.Fatal(err)
	}
	rel, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, g := rel.Pub, rel.Guarantee
	if g == nil || g.Rho2 != 0.45 {
		t.Fatalf("guarantee block drifted: %+v", g)
	}
	if !reflect.DeepEqual(got.Columns(), pub.Columns()) {
		t.Fatal("rows drifted across the round trip")
	}
	for j, a := range pub.Schema.QI {
		b := got.Schema.QI[j]
		if a.Name != b.Name || a.Kind != b.Kind || !reflect.DeepEqual(a.Values, b.Values) {
			t.Fatalf("QI attribute %d drifted", j)
		}
	}
	if pub.Schema.Sensitive.Name != got.Schema.Sensitive.Name ||
		pub.Schema.Sensitive.Kind != got.Schema.Sensitive.Kind {
		t.Fatal("sensitive attribute drifted")
	}
}

// TestSaveLoadFile round-trips through the file API.
func TestSaveLoadFile(t *testing.T) {
	pub := publishHospital(t, pg.TDS)
	path := t.TempDir() + "/pub.pgsnap"
	if err := Save(path, pub, nil); err != nil {
		t.Fatal(err)
	}
	rel, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got, g := rel.Pub, rel.Guarantee
	if g != nil {
		t.Fatal("unexpected guarantee block")
	}
	if !reflect.DeepEqual(got.Columns(), pub.Columns()) {
		t.Fatal("rows drifted through the file round trip")
	}
}

// tinyPublication builds the smallest structurally complete publication —
// recoding present, grids present, several rows — so the exhaustive
// every-byte and every-prefix sweeps stay fast: even a minimal v2 file is 21
// page-aligned blocks (~90 KiB), and the sweeps are quadratic in file size.
// The hospital publications cover the same paths at realistic scale in the
// round-trip tests.
func tinyPublication(t testing.TB) *pg.Published {
	t.Helper()
	q0, err := dataset.NewIntAttribute("q0", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := dataset.NewIntAttribute("q1", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := dataset.NewIntAttribute("s", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := dataset.NewSchema([]*dataset.Attribute{q0, q1}, sens)
	if err != nil {
		t.Fatal(err)
	}
	tab := dataset.NewTable(schema)
	for i := 0; i < 12; i++ {
		if err := tab.Append([]int32{int32(i % 4), int32(i % 3), int32(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	hiers := []*hierarchy.Hierarchy{
		hierarchy.MustInterval(4, 2, 4),
		hierarchy.MustFlat(3),
	}
	pub, err := pg.Publish(tab, hiers, pg.Config{K: 2, P: 0.25, Algorithm: pg.TDS, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// TestRejectsCorruption flips every single byte of a valid snapshot in turn
// and requires Read's decoder to reject each mutant: header damage is
// caught by the magic/version/length checks, metadata damage by its
// CRC-32C, block damage by the per-block CRCs, padding damage by the zero
// check.
func TestRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), &pg.GuaranteeMetadata{Lambda: 0.1, Rho1: 0.2, Rho2: 0.4, Delta: 0.2}, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The sweep runs the decoder Read hands its bytes to, in place; one Read
	// of a corrupted image keeps Read's own wrapper covered.
	for i := range data {
		data[i] ^= 0x5a
		_, err := openVerified(data)
		data[i] ^= 0x5a
		if err == nil {
			t.Fatalf("byte %d of %d: corruption accepted", i, len(data))
		}
	}
	data[len(data)/2] ^= 0x5a
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("Read accepted a corrupted image")
	}
}

// TestRejectsUnsupportedVersion restamps a valid file's version field —
// 1 (the retired flat-body format), 2 (the retired chainless columnar
// format), 0 and a future 4 — and requires both readers to refuse it by
// name and to name the one version they read.
func TestRejectsUnsupportedVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint16{0, 1, 2, Version + 1} {
		data := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint16(data[6:8], v)
		want := fmt.Sprintf("unsupported format version %d (reader supports %d)", v, Version)
		if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Read of version %d: %v", v, err)
		}
		path := filepath.Join(t.TempDir(), "v.pgsnap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenMapped of version %d: %v", v, err)
		}
	}
}

// TestRejectsTruncation cuts the file at every possible length short of the
// full one and requires a loud error each time.
func TestRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), nil, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// As in TestRejectsCorruption: the sweep runs Read's decoder, each
	// prefix capped so nothing past it is reachable, and one Read of a
	// truncated image keeps the wrapper covered.
	for n := 0; n < len(data); n++ {
		if _, err := openVerified(data[:n:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
	}
	if _, err := Read(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("Read accepted a truncated image")
	}
}

// TestRejectsTrailingGarbage: Read takes the stream as one file, so bytes
// appended after the last block are refused the way they are in a file; and
// a *length field* that overstates the body is rejected too.
func TestRejectsTrailingGarbage(t *testing.T) {
	pub := publishHospital(t, pg.KD)
	var buf bytes.Buffer
	if err := Write(&buf, pub, nil, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Overstate the body length: the checksum is now computed over garbage.
	mut := append([]byte(nil), data...)
	mut[8]++ // low byte of the body length
	mut = append(mut, 0xee)
	if _, err := Read(bytes.NewReader(mut)); err == nil {
		t.Fatal("overstated body length accepted")
	}

	if _, err := Read(bytes.NewReader(append(bytes.Clone(data), 0xde, 0xad))); err == nil {
		t.Fatal("read with trailing stream data accepted")
	}
	if _, err := Read(bytes.NewReader(data)); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}
}

// TestRejectsOversizedBodyClaim pins the allocation guard: a header claiming
// a multi-gigabyte body is rejected before any allocation happens.
func TestRejectsOversizedBodyClaim(t *testing.T) {
	pub := publishHospital(t, pg.KD)
	var buf bytes.Buffer
	if err := Write(&buf, pub, nil, nil); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	for i := 8; i < 16; i++ {
		data[i] = 0xff
	}
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized body claim not rejected by the limit guard: %v", err)
	}
}

// restamp recomputes the header CRC over a (modified) metadata body.
func restamp(img []byte) {
	n := binary.LittleEndian.Uint64(img[8:16])
	binary.LittleEndian.PutUint32(img[16:20], crc32.Checksum(img[headerLen:headerLen+int(n)], castagnoli))
}

// reseal recomputes block i's directory CRC over its (modified) payload,
// then the header CRC, so the image passes every checksum.
func reseal(img []byte, i int) {
	n := int(binary.LittleEndian.Uint64(img[8:16]))
	meta := img[headerLen : headerLen+n]
	e := meta[len(meta)-len(v2Blocks)*dirEntryLen+i*dirEntryLen:]
	off, sz := binary.LittleEndian.Uint64(e[0:8]), binary.LittleEndian.Uint64(e[8:16])
	binary.LittleEndian.PutUint32(e[16:20], crc32.Checksum(img[off+prefixLen:off+prefixLen+sz], castagnoli))
	restamp(img)
}

// TestRejectsOutOfRangeRowValues writes a row value Write never emits — a
// G or a source row outside the format's ranges — into a valid image under
// fresh block and header CRCs. Every reader must refuse it: Load and Read,
// and OpenMapped once Verify runs. (The open alone may accept it; the row
// columns are payload, which Verify checks.)
func TestRejectsOutOfRangeRowValues(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), nil, nil); err != nil {
		t.Fatal(err)
	}
	const gBlock, sourceBlock = 3, 4
	cases := []struct {
		name  string
		block int
		v     int64
	}{
		{"G = 2^40", gBlock, 1 << 40},
		{"G = 0", gBlock, 0},
		{"source row = 2^40", sourceBlock, 1 << 40},
		{"source row = -2", sourceBlock, -2},
	}
	for _, tc := range cases {
		img := bytes.Clone(buf.Bytes())
		n := int(binary.LittleEndian.Uint64(img[8:16]))
		e := img[headerLen+n-len(v2Blocks)*dirEntryLen+tc.block*dirEntryLen:]
		off := binary.LittleEndian.Uint64(e[0:8])
		binary.LittleEndian.PutUint64(img[off+prefixLen:], uint64(tc.v))
		reseal(img, tc.block)

		if _, err := Read(bytes.NewReader(img)); err == nil {
			t.Errorf("%s: Read accepted it", tc.name)
		}
		path := filepath.Join(t.TempDir(), "bad.pgsnap")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load accepted it", tc.name)
		}
		m, err := OpenMapped(path)
		if err == nil {
			err = m.Verify()
			m.Close()
		}
		if err == nil {
			t.Errorf("%s: OpenMapped+Verify accepted it", tc.name)
		}
	}
}

// TestRejectsHugeBlockOffset gives the first block a page-aligned offset
// near 2^64 under a valid header CRC. Converted to int it wraps negative,
// so the next block's overlap check passes and the mapped reader would
// index the image there; both readers must refuse it by the file limit.
func TestRejectsHugeBlockOffset(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, off := range []uint64{1<<64 - pageAlign, 1 << 62, maxFileLen + pageAlign} {
		img := bytes.Clone(buf.Bytes())
		n := int(binary.LittleEndian.Uint64(img[8:16]))
		meta := img[headerLen : headerLen+n]
		binary.LittleEndian.PutUint64(meta[len(meta)-len(v2Blocks)*dirEntryLen:], off)
		restamp(img)
		if _, err := Read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "file limit") {
			t.Errorf("offset %#x: Read: %v", off, err)
		}
		if _, err := newMapped(img, false); err == nil || !strings.Contains(err.Error(), "file limit") {
			t.Errorf("offset %#x: newMapped: %v", off, err)
		}
	}
}

// TestReadBoundsClaimAllocation feeds Read a bare header claiming the
// largest allowed body: the claim is refused as truncated after
// allocating about what the stream holds, not the gigabyte the header asks
// for.
func TestReadBoundsClaimAllocation(t *testing.T) {
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], maxBodyLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("bodiless header accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a bodiless %d-byte claim allocated %d bytes", uint64(maxBodyLen), got)
	}
}
