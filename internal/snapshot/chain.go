package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
)

// ChainMetadata is the release-chain block a snapshot carries when
// it is one release of a re-publication series (pg.Republish). It names the
// release's position in the chain, pins its parent by checksum, summarizes
// the delta that produced it, and records the cross-release guarantee
// accounting — the per-release odds-ratio bound and the composed breach
// bound Δ_T of repub.ComposedGrowthBound — so a consumer can audit the
// multi-release privacy contract without the microdata.
//
// The parent link is the parent file's header CRC (the CRC-32C of its
// metadata body, read cheaply by HeaderCRC). Because the metadata
// body embeds the per-block directory with each column block's own CRC,
// that one checksum transitively pins the parent's entire byte content.
type ChainMetadata struct {
	// Release is the 0-based release number; release 0 is the base publish.
	Release int `json:"release"`
	// ParentCRC is the header CRC of release Release-1's snapshot file, and
	// 0 for release 0 (which has no parent).
	ParentCRC uint32 `json:"parent_crc"`
	// Inserts and Deletes summarize the delta that produced this release
	// from its parent's microdata; both are 0 for release 0 and for pure
	// re-perturbation releases.
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`
	// SourceRows is the post-delta microdata row count this release was
	// published from.
	SourceRows int `json:"source_rows"`
	// OddsRatio is the per-release odds-ratio bound R = 1 + h^T p / u of
	// repub.OddsRatioBound under the release's announced (p, λ, k, m).
	OddsRatio float64 `json:"odds_ratio"`
	// ComposedDelta is the composed T-release breach-probability growth
	// bound Δ_T = (√R^T − 1)/(√R^T + 1) with T = Release + 1.
	ComposedDelta float64 `json:"composed_delta"`
}

// ChainFieldNames returns the exported field names of ChainMetadata in
// declaration (and encoding) order. It exists for tooling and the
// documentation tests, which pin the release-chain spec in
// docs/REPUBLICATION.md to this list.
func ChainFieldNames() []string {
	t := reflect.TypeOf(ChainMetadata{})
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return names
}

// encodeChain encodes the optional release-chain block, mirroring
// encodeGuarantee: a presence flag byte, then the fields in ChainFieldNames
// order.
func encodeChain(e *enc, c *ChainMetadata) error {
	if c == nil {
		e.u8(0)
		return nil
	}
	if c.Release < 0 || c.Release > math.MaxInt32 {
		return fmt.Errorf("snapshot: chain release %d outside [0, 2^31)", c.Release)
	}
	if c.Release == 0 && c.ParentCRC != 0 {
		return fmt.Errorf("snapshot: release 0 cannot have a parent CRC")
	}
	if c.Inserts < 0 || c.Deletes < 0 || c.SourceRows < 0 {
		return fmt.Errorf("snapshot: negative chain delta summary (%d inserts, %d deletes, %d source rows)",
			c.Inserts, c.Deletes, c.SourceRows)
	}
	e.u8(1)
	e.u32(uint32(c.Release))
	e.u32(c.ParentCRC)
	e.u64(uint64(c.Inserts))
	e.u64(uint64(c.Deletes))
	e.u64(uint64(c.SourceRows))
	e.f64(c.OddsRatio)
	e.f64(c.ComposedDelta)
	return nil
}

// decodeChain decodes the optional release-chain block.
func decodeChain(d *dec) (*ChainMetadata, error) {
	switch d.u8() {
	case 0:
		return nil, d.err
	case 1:
	default:
		if d.err == nil {
			return nil, fmt.Errorf("snapshot: bad release-chain presence flag")
		}
		return nil, d.err
	}
	c := &ChainMetadata{}
	release := d.u32()
	c.ParentCRC = d.u32()
	ins := d.u64()
	del := d.u64()
	src := d.u64()
	c.OddsRatio = d.f64()
	c.ComposedDelta = d.f64()
	if d.err != nil {
		return nil, d.err
	}
	if release > math.MaxInt32 {
		return nil, fmt.Errorf("snapshot: chain release %d outside [0, 2^31)", release)
	}
	if ins > maxBodyLen || del > maxBodyLen || src > maxBodyLen {
		return nil, fmt.Errorf("snapshot: implausible chain delta summary (%d inserts, %d deletes, %d source rows)",
			ins, del, src)
	}
	c.Release, c.Inserts, c.Deletes, c.SourceRows = int(release), int(ins), int(del), int(src)
	if c.Release == 0 && c.ParentCRC != 0 {
		return nil, fmt.Errorf("snapshot: release 0 cannot have a parent CRC")
	}
	if math.IsNaN(c.OddsRatio) || c.OddsRatio < 1 {
		return nil, fmt.Errorf("snapshot: chain odds-ratio bound %v below 1", c.OddsRatio)
	}
	if math.IsNaN(c.ComposedDelta) || c.ComposedDelta < 0 || c.ComposedDelta > 1 {
		return nil, fmt.Errorf("snapshot: composed breach bound %v outside [0,1]", c.ComposedDelta)
	}
	return c, nil
}

// HeaderCRC reads only the 20-byte header at path and returns the recorded
// body CRC — the checksum that identifies a release in the chain
// (ChainMetadata's ParentCRC refers to it). Unlike FileCRC it does not
// touch the column blocks, yet pins them transitively through the
// directory's per-block CRCs inside the body.
func HeaderCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, fmt.Errorf("snapshot: reading header of %s (truncated file?): %w", path, err)
	}
	if [6]byte(hdr[:6]) != magic {
		return 0, fmt.Errorf("snapshot: %s: bad magic %q — not a snapshot file", path, hdr[:6])
	}
	return binary.LittleEndian.Uint32(hdr[16:20]), nil
}
