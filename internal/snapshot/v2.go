package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pgpub/internal/pg"
	"pgpub/internal/query"
)

// Version-2/3 layout. The header's body (CRC'd like any version's) is the
// metadata:
//
//	encodePubMeta        schema, algorithm, p, K, recoding
//	encodeGuarantee      optional guarantee block
//	encodeChain          optional release-chain block (version 3 only)
//	u64                  row count N
//	i32                  serving-index kd-tree root (-1 when empty)
//	u32                  block count (always len(v2Blocks))
//	per block            u64 file offset, u64 payload length, u32 CRC-32C
//
// After the metadata come the column blocks, in the fixed v2Blocks order.
// Each block starts at a 4096-byte-aligned file offset with a u64
// little-endian length prefix (equal to the directory's payload length)
// followed by the raw payload — the little-endian image of one
// []int32/[]int64/[]float64 array. Gaps forced by alignment are zero-filled
// and the file ends exactly at the last block's end. Payloads start 8 bytes
// past a page boundary, so every element width divides its payload's
// alignment — which is what lets OpenMapped adopt the mapped pages as Go
// slices without copying.
//
// The directory is authoritative for offsets and lengths; the length
// prefixes are deliberate redundancy so a block is self-describing when the
// metadata page is unavailable (and a cheap consistency check when it is).

// pageAlign is the file alignment of every v2 column block.
const pageAlign = 4096

// prefixLen is the u64 length prefix preceding each block payload.
const prefixLen = 8

// maxFileLen bounds a block offset. The metadata and the 21 blocks, each at
// most maxBodyLen plus a page of padding, fit well inside it. Offsets past
// it are refused before any arithmetic on them, which keeps file positions
// far from int overflow.
const maxFileLen = 32 * (maxBodyLen + pageAlign)

// dirEntryLen is the encoded size of one block directory entry.
const dirEntryLen = 8 + 8 + 4

// v2Block describes one column block: its name (for error messages and the
// format spec) and element width in bytes (payload length must divide it).
type v2Block struct {
	name string
	elem int
}

// v2Blocks is the fixed block order of the format. Changing it is a format
// break: readers locate blocks by position, not by name.
var v2Blocks = []v2Block{
	{"rows.lo", 4}, {"rows.hi", 4}, {"rows.value", 4}, {"rows.g", 8}, {"rows.source", 8},
	{"ent.lo", 4}, {"ent.hi", 4}, {"ent.g", 8},
	{"val.off", 4}, {"val.code", 4}, {"val.w", 8},
	{"node.lo", 4}, {"node.hi", 4}, {"node.g", 8},
	{"node.hist", 8}, {"node.pref", 8},
	{"node.left", 4}, {"node.right", 4}, {"node.elo", 4}, {"node.ehi", 4},
	{"grid.sat", 8},
}

// V2BlockNames returns the block names of the version-2 layout in file
// order. It exists for tooling and the documentation tests, which pin the
// format spec in docs/SERVING.md to this table.
func V2BlockNames() []string {
	names := make([]string, len(v2Blocks))
	for i, b := range v2Blocks {
		names[i] = b.name
	}
	return names
}

// blockDir is one decoded directory entry.
type blockDir struct {
	off, n uint64
	crc    uint32
}

// alignUp rounds x up to the next pageAlign boundary.
func alignUp(x int) int { return (x + pageAlign - 1) &^ (pageAlign - 1) }

// v2Payloads gathers the 21 column payloads in v2Blocks order. On
// little-endian hosts the byte slices alias the source arrays (no copy).
func v2Payloads(cols *pg.RowColumns, parts query.IndexParts) [][]byte {
	return [][]byte{
		i32Bytes(cols.Lo), i32Bytes(cols.Hi), i32Bytes(cols.Value),
		i64Bytes(cols.G), i64Bytes(cols.SourceRow),
		i32Bytes(parts.EntLo), i32Bytes(parts.EntHi), f64Bytes(parts.EntG),
		i32Bytes(parts.ValOff), i32Bytes(parts.ValCode), f64Bytes(parts.ValW),
		i32Bytes(parts.NodeLo), i32Bytes(parts.NodeHi), f64Bytes(parts.NodeG),
		f64Bytes(parts.NodeHist), f64Bytes(parts.NodePref),
		i32Bytes(parts.NodeLeft), i32Bytes(parts.NodeRight),
		i32Bytes(parts.NodeELo), i32Bytes(parts.NodeEHi),
		f64Bytes(parts.GridSat),
	}
}

// checkRowRanges refuses the row values the format does not carry: a
// group size G outside [1, MaxInt32] or a source row outside
// [-1, MaxInt32]. Write runs it before encoding and Verify after decoding,
// so no image Write could not have produced passes Verify.
func checkRowRanges(cols *pg.RowColumns) error {
	for i := 0; i < cols.N; i++ {
		if cols.G[i] < 1 || cols.G[i] > math.MaxInt32 {
			return fmt.Errorf("snapshot: row %d has G = %d", i, cols.G[i])
		}
		if cols.SourceRow[i] < -1 || cols.SourceRow[i] > math.MaxInt32 {
			return fmt.Errorf("snapshot: row %d has source row %d", i, cols.SourceRow[i])
		}
	}
	return nil
}

// writeV2 emits the current (version 3) format: metadata body, then the row
// columns and the prebuilt serving index as page-aligned blocks. The index
// is built here — publish time — so every cold start afterwards adopts it
// instead of rebuilding it.
func writeV2(w io.Writer, pub *pg.Published, g *pg.GuaranteeMetadata, chain *ChainMetadata) error {
	cols := pub.Columns()
	if err := cols.Check(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := checkRowRanges(cols); err != nil {
		return err
	}
	// The index is built over a columnar view of the same publication, so
	// the row-major → columnar conversion above is the only one.
	view := *pub
	view.Rows = nil
	colPub, err := pg.FromColumns(view, cols)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	ix, err := query.NewIndex(colPub)
	if err != nil {
		return fmt.Errorf("snapshot: building serving index: %w", err)
	}
	parts := ix.Parts()
	payloads := v2Payloads(cols, parts)

	// Metadata body: shared prefix, then the v2 tail.
	e := &enc{}
	if err := encodePubMeta(e, pub); err != nil {
		return err
	}
	encodeGuarantee(e, g)
	if err := encodeChain(e, chain); err != nil {
		return err
	}
	e.u64(uint64(cols.N))
	e.i32(parts.Root)

	// Lay the blocks out before encoding the directory (its size is fixed, so
	// offsets don't depend on their own encoding).
	metaLen := len(e.b) + 4 + len(payloads)*dirEntryLen
	off := alignUp(headerLen + metaLen)
	dirs := make([]blockDir, len(payloads))
	for i, p := range payloads {
		dirs[i] = blockDir{off: uint64(off), n: uint64(len(p)), crc: crc32.Checksum(p, castagnoli)}
		off = alignUp(off + prefixLen + len(p))
	}
	e.u32(uint32(len(dirs)))
	for _, dd := range dirs {
		e.u64(dd.off)
		e.u64(dd.n)
		e.u32(dd.crc)
	}

	if _, err := w.Write(makeHeader(Version, e.b)); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	if _, err := w.Write(e.b); err != nil {
		return fmt.Errorf("snapshot: writing metadata: %w", err)
	}
	pos := headerLen + len(e.b)
	zero := make([]byte, pageAlign)
	var pre [prefixLen]byte
	for i, p := range payloads {
		if gap := int(dirs[i].off) - pos; gap > 0 {
			if _, err := w.Write(zero[:gap]); err != nil {
				return fmt.Errorf("snapshot: writing padding: %w", err)
			}
			pos += gap
		}
		binary.LittleEndian.PutUint64(pre[:], dirs[i].n)
		if _, err := w.Write(pre[:]); err != nil {
			return fmt.Errorf("snapshot: writing %s block: %w", v2Blocks[i].name, err)
		}
		if _, err := w.Write(p); err != nil {
			return fmt.Errorf("snapshot: writing %s block: %w", v2Blocks[i].name, err)
		}
		pos += prefixLen + len(p)
	}
	return nil
}

// decodeMeta decodes a CRC-verified version-2/3 metadata body: the
// publication prefix, the guarantee block and (version 3) the chain block
// into a Release stamped with crc, then the v2 tail — row count, index root,
// block directory. The directory is checked for shape here — count,
// ascending page-aligned offsets, element-width divisibility — so every
// later consumer can trust its geometry.
func decodeMeta(meta []byte, version uint16, crc uint32) (rel *Release, rowN int, root int32, dirs []blockDir, err error) {
	d := &dec{b: meta}
	rel = &Release{CRC: crc}
	if rel.Pub, err = decodePubMeta(d); err != nil {
		return nil, 0, 0, nil, err
	}
	if rel.Guarantee, err = decodeGuarantee(d); err != nil {
		return nil, 0, 0, nil, err
	}
	if version == Version {
		if rel.Chain, err = decodeChain(d); err != nil {
			return nil, 0, 0, nil, err
		}
	}
	n := d.u64()
	root = d.i32()
	cnt := int(d.u32())
	if d.err != nil {
		return nil, 0, 0, nil, d.err
	}
	if n > math.MaxInt32 {
		return nil, 0, 0, nil, fmt.Errorf("snapshot: row count %d exceeds the format limit", n)
	}
	if cnt != len(v2Blocks) {
		return nil, 0, 0, nil, fmt.Errorf("snapshot: directory lists %d blocks, format has %d", cnt, len(v2Blocks))
	}
	dirs = make([]blockDir, cnt)
	end := headerLen + len(meta)
	for i := range dirs {
		dirs[i] = blockDir{off: d.u64(), n: d.u64(), crc: d.u32()}
		if d.err != nil {
			return nil, 0, 0, nil, d.err
		}
		b := v2Blocks[i]
		if dirs[i].off%pageAlign != 0 {
			return nil, 0, 0, nil, fmt.Errorf("snapshot: %s block offset %d not page-aligned", b.name, dirs[i].off)
		}
		if dirs[i].off < uint64(alignUp(end)) {
			return nil, 0, 0, nil, fmt.Errorf("snapshot: %s block offset %d overlaps the previous section", b.name, dirs[i].off)
		}
		if dirs[i].off > maxFileLen {
			return nil, 0, 0, nil, fmt.Errorf("snapshot: %s block offset %d exceeds the %d-byte file limit", b.name, dirs[i].off, uint64(maxFileLen))
		}
		if dirs[i].n > maxBodyLen {
			return nil, 0, 0, nil, fmt.Errorf("snapshot: %s block length %d exceeds the %d-byte limit", b.name, dirs[i].n, maxBodyLen)
		}
		if dirs[i].n%uint64(b.elem) != 0 {
			return nil, 0, 0, nil, fmt.Errorf("snapshot: %s block length %d not a multiple of %d", b.name, dirs[i].n, b.elem)
		}
		end = int(dirs[i].off) + prefixLen + int(dirs[i].n)
	}
	if d.off != len(d.b) {
		return nil, 0, 0, nil, fmt.Errorf("snapshot: %d trailing bytes after the block directory", len(d.b)-d.off)
	}
	return rel, int(n), root, dirs, nil
}

// verifyBlocks checks the block bytes newMapped leaves unread: every
// padding byte is zero and every payload matches its directory CRC. The
// geometry — ascending blocks, length prefixes equal to the directory, the
// file ending at the last block — newMapped has already pinned. base is the
// file offset of the first byte after the metadata.
func verifyBlocks(data []byte, base int, dirs []blockDir) error {
	pos := base
	for i, dd := range dirs {
		b := v2Blocks[i]
		if !allZero(data[pos:dd.off]) {
			return fmt.Errorf("snapshot: nonzero padding before the %s block", b.name)
		}
		end := int(dd.off) + prefixLen + int(dd.n)
		if crc32.Checksum(data[int(dd.off)+prefixLen:end], castagnoli) != dd.crc {
			return fmt.Errorf("snapshot: %s block checksum mismatch (corrupted file)", b.name)
		}
		pos = end
	}
	return nil
}

// allZero reports whether every byte of b is zero, comparing a page at a
// time.
func allZero(b []byte) bool {
	var zero [pageAlign]byte
	for len(b) > 0 {
		n := min(len(b), pageAlign)
		if !bytes.Equal(b[:n], zero[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// v2IndexParts wraps the 16 index payloads as query.IndexParts.
func v2IndexParts(p float64, root int32, payloads [][]byte) query.IndexParts {
	return query.IndexParts{
		P:         p,
		Root:      root,
		EntLo:     bytesToI32(payloads[5]),
		EntHi:     bytesToI32(payloads[6]),
		EntG:      bytesToF64(payloads[7]),
		ValOff:    bytesToI32(payloads[8]),
		ValCode:   bytesToI32(payloads[9]),
		ValW:      bytesToF64(payloads[10]),
		NodeLo:    bytesToI32(payloads[11]),
		NodeHi:    bytesToI32(payloads[12]),
		NodeG:     bytesToF64(payloads[13]),
		NodeHist:  bytesToF64(payloads[14]),
		NodePref:  bytesToF64(payloads[15]),
		NodeLeft:  bytesToI32(payloads[16]),
		NodeRight: bytesToI32(payloads[17]),
		NodeELo:   bytesToI32(payloads[18]),
		NodeEHi:   bytesToI32(payloads[19]),
		GridSat:   bytesToF64(payloads[20]),
	}
}
