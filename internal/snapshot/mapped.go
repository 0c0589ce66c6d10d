package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"pgpub/internal/pg"
	"pgpub/internal/query"
)

// Mapped is an opened snapshot: the publication's row columns
// and the serving index alias the file image (a read-only mmap from
// OpenMapped on linux/darwin; an in-memory copy from Load and Read,
// elsewhere, or when mapping fails). Close releases a mapping — after Close
// every slice that aliased it is invalid, so drop the Mapped only when the
// serving structures built from it are no longer in use.
type Mapped struct {
	// Release is the publication, its row columns adopted from the image,
	// its guarantee and chain blocks, and the header CRC read from the
	// mapped header itself.
	Release
	// Index is the serving index, reconstructed around the mapped arrays
	// without a rebuild.
	Index *query.Index

	data   []byte
	mapped bool
	dirs   []blockDir
	base   int
}

// OpenMapped opens a snapshot for serving without parsing it: the
// file is mapped read-only and the column arrays are adopted in place, so
// the cost of a cold start is the metadata pages plus the page faults the
// first queries take — not a decode of the whole file.
//
// Integrity at open is deliberately shallower than Load's: the header and
// metadata body are fully CRC-verified and every structural array the index
// traversal depends on is validated, but the bulk column payloads are NOT
// checksummed (that would fault in every page, which is exactly the cost
// being avoided) and the publication validator is not run. Call Verify to
// pay that cost when wanted; Load and Read are the same open plus Verify.
func OpenMapped(path string) (*Mapped, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	m, err := newMapped(data, mapped)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, err
	}
	return m, nil
}

// Load reads the snapshot at path into memory and opens it with the full
// integrity check: OpenMapped's decode, then Verify. The publication's
// columns and the serving index alias the in-memory copy, so Close is a
// no-op and the collector reclaims it with the last reference.
func Load(path string) (*Mapped, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return openVerified(data)
}

// Read is Load over a stream: it reads r to its end — at most the format's
// largest file — and requires those bytes to be exactly one snapshot, so
// trailing bytes are refused the way they are in a file.
func Read(r io.Reader) (*Mapped, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxFileLen+1))
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading snapshot: %w", err)
	}
	if int64(len(data)) > maxFileLen {
		return nil, fmt.Errorf("snapshot: stream exceeds the %d-byte file limit", uint64(maxFileLen))
	}
	return openVerified(data)
}

// openVerified opens an in-memory image and runs Verify on it.
func openVerified(data []byte) (*Mapped, error) {
	m, err := newMapped(data, false)
	if err != nil {
		return nil, err
	}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return m, nil
}

// newMapped builds the serving view over a snapshot image.
func newMapped(data []byte, mapped bool) (*Mapped, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("snapshot: %d-byte file shorter than the %d-byte header (truncated file?)", len(data), headerLen)
	}
	if [6]byte(data[:6]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q — not a snapshot file", data[:6])
	}
	version := binary.LittleEndian.Uint16(data[6:8])
	if version != Version {
		return nil, unsupportedVersion(version)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n > maxBodyLen {
		return nil, fmt.Errorf("snapshot: metadata length %d exceeds the %d-byte limit", n, maxBodyLen)
	}
	if headerLen+int(n) > len(data) {
		return nil, fmt.Errorf("snapshot: metadata length %d exceeds the file (truncated file?)", n)
	}
	meta := data[headerLen : headerLen+int(n)]
	crc := binary.LittleEndian.Uint32(data[16:20])
	if crc32.Checksum(meta, castagnoli) != crc {
		return nil, fmt.Errorf("snapshot: metadata checksum mismatch (corrupted file)")
	}
	rel, rowN, root, dirs, err := decodeMeta(meta, crc)
	if err != nil {
		return nil, err
	}
	base := headerLen + len(meta)
	last := dirs[len(dirs)-1]
	if int(last.off)+prefixLen+int(last.n) != len(data) {
		return nil, fmt.Errorf("snapshot: file is %d bytes, directory ends at %d (truncated file?)",
			len(data), int(last.off)+prefixLen+int(last.n))
	}
	payloads := make([][]byte, len(dirs))
	for i, dd := range dirs {
		if pre := binary.LittleEndian.Uint64(data[dd.off:]); pre != dd.n {
			return nil, fmt.Errorf("snapshot: %s block length prefix %d disagrees with directory %d",
				v2Blocks[i].name, pre, dd.n)
		}
		payloads[i] = data[int(dd.off)+prefixLen : int(dd.off)+prefixLen+int(dd.n)]
	}

	// Shape-check the row columns (FromColumns runs Check) and rebuild the
	// index around the mapped arrays; NewIndexFromParts validates every
	// structural array. Deep validation (payload CRCs, pg.Validate) is
	// Verify's job.
	cols := &pg.RowColumns{
		N:         rowN,
		D:         rel.Pub.Schema.D(),
		Lo:        bytesToI32(payloads[0]),
		Hi:        bytesToI32(payloads[1]),
		Value:     bytesToI32(payloads[2]),
		G:         bytesToI64(payloads[3]),
		SourceRow: bytesToI64(payloads[4]),
	}
	if rel.Pub, err = pg.FromColumns(*rel.Pub, cols); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	ix, err := query.NewIndexFromParts(rel.Pub.Schema, v2IndexParts(rel.Pub.P, root, payloads))
	if err != nil {
		return nil, fmt.Errorf("snapshot: mapped serving index invalid: %w", err)
	}
	return &Mapped{Release: *rel, Index: ix, data: data, mapped: mapped, dirs: dirs, base: base}, nil
}

// Verify runs the integrity checks OpenMapped skipped: every block CRC,
// every padding byte, and the full publication validator. It faults in the
// whole file — use it when corruption matters more than cold-start latency
// (e.g. a one-time check after copying a snapshot between hosts).
func (m *Mapped) Verify() error {
	if err := verifyBlocks(m.data, m.base, m.dirs); err != nil {
		return err
	}
	if err := checkRowRanges(m.Pub.Columns()); err != nil {
		return err
	}
	if m.Pub.Len() > 0 {
		if err := m.Pub.Validate(); err != nil {
			return fmt.Errorf("snapshot: mapped publication invalid: %w", err)
		}
	}
	return nil
}

// Close releases the mapping. The Mapped's publication and index — and
// anything sharing their arrays — must not be used afterwards.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.mapped = nil, false
	if mapped {
		if err := unmapFile(data); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	return nil
}
