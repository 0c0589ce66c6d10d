package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// A shard manifest (.pgman) is the release descriptor of a sharded
// publication: one entry per shard naming its snapshot file, the CRC-32C of
// that file's bytes, and its row counts, plus the parameters every shard
// shares (k, p, algorithm, root seed). The coordinator loads it to know what
// a complete release looks like before it trusts any shard server, and
// offline tools (pgquery -manifest) load it to open all shards at once.
//
// # File format
//
// The layout mirrors the snapshot header so one reader discipline covers
// both artifacts:
//
//	offset  size  field
//	0       6     magic "PGMAN\x00"
//	6       2     format version, little-endian uint16 (currently 1)
//	8       8     body length in bytes, little-endian uint64
//	16      4     CRC-32C (Castagnoli) of the body, little-endian uint32
//	20      len   body
//
// The body is the same deterministic little-endian encoding the snapshot
// codec uses: fixed-width integers, length-prefixed UTF-8 strings. Fields in
// order: k (u32), p (f64), algorithm (str), seed (i64), source rows (u64),
// shard count (u32), then per shard: path (str, relative to the manifest's
// directory), snapshot CRC-32C (u32), published rows (u64), source rows
// (u64). ReadManifest rejects truncation, trailing garbage, checksum
// mismatches and structurally invalid entries.

// manifestMagic identifies a shard manifest file.
var manifestMagic = [6]byte{'P', 'G', 'M', 'A', 'N', 0}

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// ShardEntry describes one shard of a sharded release.
type ShardEntry struct {
	// Path locates the shard's snapshot, relative to the manifest file's
	// directory (absolute paths are preserved as-is).
	Path string
	// CRC is the CRC-32C (Castagnoli) of the snapshot file's entire bytes.
	CRC uint32
	// Rows is the shard's published row count |D*_s|.
	Rows int
	// SourceRows is the microdata row count the shard was published from.
	SourceRows int
}

// Manifest is the parsed shard manifest.
type Manifest struct {
	// K, P, Algorithm are the publication parameters every shard shares.
	K         int
	P         float64
	Algorithm string
	// Seed is the root seed the per-shard publication seeds were split from.
	Seed int64
	// SourceRows is the total microdata cardinality across shards.
	SourceRows int
	// Shards lists the shard entries in shard-index order. The order is the
	// merge order: a coordinator composes answers shard 0 first.
	Shards []ShardEntry
}

// Validate checks the manifest's structural invariants.
func (m *Manifest) Validate() error {
	if m.K < 1 {
		return fmt.Errorf("snapshot: manifest k = %d", m.K)
	}
	if !(m.P >= 0 && m.P <= 1) { // also refuses NaN
		return fmt.Errorf("snapshot: manifest retention probability %v outside [0,1]", m.P)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("snapshot: manifest has no shards")
	}
	src := 0
	for i, s := range m.Shards {
		if s.Path == "" {
			return fmt.Errorf("snapshot: manifest shard %d has no path", i)
		}
		if s.Rows < 1 {
			return fmt.Errorf("snapshot: manifest shard %d has %d published rows", i, s.Rows)
		}
		if s.SourceRows < s.Rows {
			return fmt.Errorf("snapshot: manifest shard %d publishes %d rows from %d source rows", i, s.Rows, s.SourceRows)
		}
		src += s.SourceRows
	}
	if src != m.SourceRows {
		return fmt.Errorf("snapshot: manifest shard source rows sum to %d, header says %d", src, m.SourceRows)
	}
	return nil
}

// ShardPath resolves shard i's snapshot path against the manifest's
// directory.
func (m *Manifest) ShardPath(manifestPath string, i int) string {
	p := m.Shards[i].Path
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(filepath.Dir(manifestPath), p)
}

// WriteManifest serializes the manifest to w.
func WriteManifest(w io.Writer, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	e := &enc{}
	e.u32(uint32(m.K))
	e.f64(m.P)
	e.str(m.Algorithm)
	e.i64(m.Seed)
	e.u64(uint64(m.SourceRows))
	e.u32(uint32(len(m.Shards)))
	for _, s := range m.Shards {
		e.str(s.Path)
		e.u32(s.CRC)
		e.u64(uint64(s.Rows))
		e.u64(uint64(s.SourceRows))
	}
	hdr := make([]byte, headerLen)
	copy(hdr[:6], manifestMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], ManifestVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(e.b)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(e.b, castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("snapshot: writing manifest header: %w", err)
	}
	if _, err := w.Write(e.b); err != nil {
		return fmt.Errorf("snapshot: writing manifest body: %w", err)
	}
	return nil
}

// ReadManifest parses and validates a manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("snapshot: reading manifest header: %w", err)
	}
	if [6]byte(hdr[:6]) != manifestMagic {
		return nil, fmt.Errorf("snapshot: not a shard manifest (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(hdr[6:8]); v != ManifestVersion {
		return nil, fmt.Errorf("snapshot: manifest format version %d, this build reads %d", v, ManifestVersion)
	}
	bodyLen := binary.LittleEndian.Uint64(hdr[8:16])
	if bodyLen > maxBodyLen {
		return nil, fmt.Errorf("snapshot: manifest body length %d exceeds the %d limit", bodyLen, maxBodyLen)
	}
	// A claim the stream does not back costs what the stream holds, not
	// what the header says.
	body, err := io.ReadAll(io.LimitReader(r, int64(bodyLen)))
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading manifest body: %w", err)
	}
	if uint64(len(body)) != bodyLen {
		return nil, fmt.Errorf("snapshot: manifest body truncated at %d of %d bytes", len(body), bodyLen)
	}
	if extra, err := io.Copy(io.Discard, io.LimitReader(r, 1)); err == nil && extra > 0 {
		return nil, fmt.Errorf("snapshot: trailing garbage after manifest body")
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(hdr[16:20]); got != want {
		return nil, fmt.Errorf("snapshot: manifest checksum mismatch: body %08x, header %08x", got, want)
	}
	d := &dec{b: body}
	m := &Manifest{}
	m.K = int(d.u32())
	m.P = d.f64()
	m.Algorithm = d.str()
	m.Seed = d.i64()
	m.SourceRows = int(d.u64())
	n := int(d.u32())
	if d.err == nil && n > 0 && n <= len(body) {
		m.Shards = make([]ShardEntry, n)
		for i := range m.Shards {
			m.Shards[i].Path = d.str()
			m.Shards[i].CRC = d.u32()
			m.Shards[i].Rows = int(d.u64())
			m.Shards[i].SourceRows = int(d.u64())
		}
	} else if d.err == nil {
		return nil, fmt.Errorf("snapshot: manifest claims %d shards", n)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("snapshot: %d undecoded bytes after manifest fields", len(d.b)-d.off)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveManifest writes the manifest to path with the same atomic
// temp-and-rename discipline Save uses for snapshots.
func SaveManifest(path string, m *Manifest) error {
	return writeAtomic(path, ".pgman-*", func(w io.Writer) error { return WriteManifest(w, m) })
}

// LoadManifest reads the manifest at path.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return ReadManifest(bufio.NewReader(f))
}

// FileCRC computes the CRC-32C (Castagnoli) of a file's entire bytes — the
// checksum a manifest entry records for its shard snapshot.
func FileCRC(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	h := crc32.New(castagnoli)
	if _, err := io.Copy(h, f); err != nil {
		return 0, fmt.Errorf("snapshot: checksumming %s: %w", path, err)
	}
	return h.Sum32(), nil
}

// VerifyShards re-checksums every shard snapshot named by the manifest (at
// paths resolved against manifestPath) and fails on the first mismatch —
// the offline counterpart of the coordinator's over-HTTP validation.
func (m *Manifest) VerifyShards(manifestPath string) error {
	for i := range m.Shards {
		p := m.ShardPath(manifestPath, i)
		crc, err := FileCRC(p)
		if err != nil {
			return fmt.Errorf("snapshot: manifest shard %d: %w", i, err)
		}
		if crc != m.Shards[i].CRC {
			return fmt.Errorf("snapshot: manifest shard %d (%s): file CRC %08x, manifest records %08x",
				i, p, crc, m.Shards[i].CRC)
		}
	}
	return nil
}
