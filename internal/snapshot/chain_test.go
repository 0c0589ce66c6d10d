package snapshot

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pgpub/internal/pg"
)

func testChain() *ChainMetadata {
	return &ChainMetadata{
		Release:       2,
		ParentCRC:     0xDEADBEEF,
		Inserts:       7,
		Deletes:       3,
		SourceRows:    1204,
		OddsRatio:     1.75,
		ComposedDelta: 0.42,
	}
}

// TestChainRoundTrip pins the release-chain block codec: a chained snapshot
// round-trips the ChainMetadata exactly through both the streaming reader
// and the mapped opener, and a chainless one loads Chain as nil on both.
func TestChainRoundTrip(t *testing.T) {
	pub := publishHospital(t, pg.KD)
	for _, chain := range []*ChainMetadata{nil, testChain()} {
		path := filepath.Join(t.TempDir(), "r.pgsnap")
		if err := SaveRelease(path, pub, nil, chain); err != nil {
			t.Fatalf("SaveRelease: %v", err)
		}
		rel, err := Load(path)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !reflect.DeepEqual(rel.Chain, chain) {
			t.Fatalf("Load chain = %+v, want %+v", rel.Chain, chain)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatalf("OpenMapped: %v", err)
		}
		if !reflect.DeepEqual(m.Chain, chain) {
			t.Fatalf("OpenMapped chain = %+v, want %+v", m.Chain, chain)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		m.Close()
	}
}

// TestReleaseCRCMatchesHeaderCRC pins that the CRC a Release carries — read
// by Load and OpenMapped from the same open as the content — is the header
// CRC HeaderCRC reports for the file.
func TestReleaseCRCMatchesHeaderCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.pgsnap")
	if err := Save(path, publishHospital(t, pg.KD), nil); err != nil {
		t.Fatal(err)
	}
	want, err := HeaderCRC(path)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer m.Close()
	if rel.CRC != want || m.CRC != want {
		t.Fatalf("Load CRC %08x, Mapped CRC %08x, HeaderCRC %08x", rel.CRC, m.CRC, want)
	}
}

// TestChainRejectsBadBlocks exercises the decoder's validation: corrupt
// presence flags, impossible release numbers, a parented release 0, and
// out-of-range bounds must all be refused.
func TestChainRejectsBadBlocks(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *ChainMetadata)
		want string
	}{
		{"parented release 0", func(c *ChainMetadata) { c.Release = 0 }, "release 0"},
		{"odds ratio below 1", func(c *ChainMetadata) { c.OddsRatio = 0.5 }, "odds-ratio"},
		{"composed bound above 1", func(c *ChainMetadata) { c.ComposedDelta = 1.5 }, "composed"},
	}
	for _, tc := range cases {
		c := testChain()
		tc.mut(c)
		e := &enc{}
		// Encode leniently (bypassing encodeChain's own checks) the way a
		// corrupted or hostile file would.
		e.u8(1)
		e.u32(uint32(c.Release))
		e.u32(c.ParentCRC)
		e.u64(uint64(c.Inserts))
		e.u64(uint64(c.Deletes))
		e.u64(uint64(c.SourceRows))
		e.f64(c.OddsRatio)
		e.f64(c.ComposedDelta)
		if _, err := decodeChain(&dec{b: e.b}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decodeChain err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := decodeChain(&dec{b: []byte{9}}); err == nil || !strings.Contains(err.Error(), "presence flag") {
		t.Errorf("bad presence flag: decodeChain err = %v", err)
	}
	if _, err := decodeChain(&dec{b: []byte{1, 2, 3}}); err == nil {
		t.Error("truncated chain block: decodeChain accepted it")
	}
	bad := testChain()
	bad.Release = -1
	if err := encodeChain(&enc{}, bad); err == nil {
		t.Error("encodeChain accepted a negative release")
	}
}

// TestHeaderCRC pins the release identity: HeaderCRC equals the header's
// recorded body checksum and changes when any column payload changes
// (because the directory CRCs live in the body).
func TestHeaderCRC(t *testing.T) {
	pub := publishHospital(t, pg.FullDomain)
	dir := t.TempDir()
	path := filepath.Join(dir, "r.pgsnap")
	if err := Save(path, pub, nil); err != nil {
		t.Fatalf("Save: %v", err)
	}
	crc, err := HeaderCRC(path)
	if err != nil {
		t.Fatalf("HeaderCRC: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, pub, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.Uint32(buf.Bytes()[16:20])
	if crc != want {
		t.Fatalf("HeaderCRC = %08x, header records %08x", crc, want)
	}

	other := publishHospital(t, pg.KD)
	path2 := filepath.Join(dir, "other.pgsnap")
	if err := Save(path2, other, nil); err != nil {
		t.Fatal(err)
	}
	crc2, err := HeaderCRC(path2)
	if err != nil {
		t.Fatal(err)
	}
	if crc2 == crc {
		t.Fatalf("different publications share header CRC %08x", crc)
	}
}
