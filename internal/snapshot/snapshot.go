// Package snapshot is the publication persistence layer: a versioned,
// checksummed binary codec that serializes a complete pg.Published — schema,
// Phase-2 recoding (hierarchies and cuts), generalized boxes, observed
// sensitive values, retention and sampling parameters, and the certified
// guarantee metadata — into one self-contained file, and loads it back
// byte-identically.
//
// The point of the format is the publish-then-serve split: `pgpublish
// -snapshot out.pgsnap` runs the three-phase pipeline once, and every
// downstream tool (pgserve, pgquery, pgattack) reopens the result in
// milliseconds instead of re-running minutes of anonymization — or instead of
// round-tripping through the release CSV, which drops the algorithm tag, the
// exact K, and the recoding.
//
// # File format
//
// Every version opens with the same fixed 20-byte header:
//
//	offset  size  field
//	0       6     magic "PGSNAP"
//	6       2     format version, little-endian uint16 (writer emits 3)
//	8       8     body length in bytes, little-endian uint64
//	16      4     CRC-32C (Castagnoli) of the body, little-endian uint32
//	20      len   body
//
// Versions 2 and 3 (the two this package reads) split the file in two: the
// header's body is just the *metadata* (schema, parameters, recoding,
// guarantee, row count, index root, and a block directory), and the rows
// plus a prebuilt query-serving index follow as page-aligned,
// length-prefixed, individually-CRC'd column blocks — one contiguous array
// per logical field. The layout lives in v2.go; the field-level spec is
// docs/SERVING.md. Page alignment is what lets a reader adopt the arrays in
// place instead of parsing them.
//
// Version 3 (what Write emits) is version 2 plus one metadata field: an
// optional release-chain block (ChainMetadata) between the guarantee block
// and the row count, recording the snapshot's position in a re-publication
// chain. The field-level spec is docs/REPUBLICATION.md.
//
// # Reading
//
// There is one decoder, at two depths. OpenMapped maps the file and adopts
// its columns and its stored serving index without checksumming the column
// payloads — a cold start pays page faults, not a parse. Load (a file read
// into memory) and Read (a whole stream) run the same open and then
// Mapped.Verify, which checks every block CRC and padding byte, the row
// value ranges and the full publication validator. Every path serves the
// index Write stored; none rebuilds it.
//
// The encoding is deterministic — the same publication always produces the
// same bytes — so snapshots can be content-addressed and diffed, and the
// verified open rejects anything it cannot vouch for: a short or oversized
// header, an unknown version, a file shorter or longer than its directory
// (truncation, trailing bytes), any checksum mismatch (corruption), nonzero
// padding, and any decoded structure the validators of dataset, hierarchy,
// generalize, query or pg refuse.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"pgpub/internal/dataset"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/pg"
)

// Version is the current snapshot format version (what Write emits).
const Version = 3

// versionV2 is the first columnar format, identical to version 3 except
// that its metadata body has no release-chain block. Every reader still
// accepts it (Chain loads as nil).
const versionV2 = 2

// magic identifies a snapshot file; it never changes across versions.
var magic = [6]byte{'P', 'G', 'S', 'N', 'A', 'P'}

const headerLen = 6 + 2 + 8 + 4

// maxBodyLen caps a metadata body, column block or manifest body (1 GiB),
// so a corrupted length field is refused before any arithmetic on it.
const maxBodyLen = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Release is one decoded snapshot: the publication, its certified
// guarantee metadata (nil when absent), its release-chain block (nil for
// version-2 snapshots and for version-3 snapshots outside any chain) and the
// header CRC that identifies the release — the value a successor's
// ChainMetadata.ParentCRC refers to and HeaderCRC reads from a path. The CRC
// comes from the same read as the content, so the two always describe one
// file.
type Release struct {
	Pub       *pg.Published
	Guarantee *pg.GuaranteeMetadata
	Chain     *ChainMetadata
	CRC       uint32
}

// Write serializes the publication to w in the current (version 3) format:
// metadata body, then the rows and a prebuilt query-serving index as
// page-aligned column blocks. The guarantee block is what pg.Metadata
// carries beyond the publication itself; pass nil when no level was
// certified. The release-chain block records the snapshot's position in a
// re-publication chain (release number, parent CRC, delta summary,
// cross-release guarantee accounting); pass nil outside any chain.
func Write(w io.Writer, pub *pg.Published, g *pg.GuaranteeMetadata, chain *ChainMetadata) error {
	if pub == nil || pub.Schema == nil {
		return fmt.Errorf("snapshot: nil publication or schema")
	}
	return writeV2(w, pub, g, chain)
}

func unsupportedVersion(v uint16) error {
	return fmt.Errorf("snapshot: unsupported format version %d (reader supports %d and %d)", v, versionV2, Version)
}

// makeHeader builds the 20-byte header for a body of the given version.
func makeHeader(version uint16, body []byte) []byte {
	hdr := make([]byte, headerLen)
	copy(hdr[:6], magic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(body, castagnoli))
	return hdr
}

// Save writes the snapshot to path atomically enough for the single-writer
// case: a temporary file in the same directory renamed over the target, so a
// crash mid-write never leaves a half-written .pgsnap behind.
func Save(path string, pub *pg.Published, g *pg.GuaranteeMetadata) error {
	return SaveRelease(path, pub, g, nil)
}

// SaveRelease is Save with a release-chain block (see Write).
func SaveRelease(path string, pub *pg.Published, g *pg.GuaranteeMetadata, chain *ChainMetadata) error {
	tmp, err := os.CreateTemp(dirOf(path), ".pgsnap-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	bw := bufio.NewWriter(tmp)
	if err := Write(bw, pub, g, chain); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := bw.Flush(); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == os.PathSeparator {
			return path[:i+1]
		}
	}
	return "."
}

// ---------------------------------------------------------------------------
// Body encoding

// enc is a little-endian append-only buffer.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(v)
	}
}

// encodePubMeta encodes the metadata prefix the body opens with: schema, pipeline parameters, optional recoding.
func encodePubMeta(e *enc, pub *pg.Published) error {
	// Schema: d QI attributes then the sensitive attribute.
	e.u32(uint32(pub.Schema.D()))
	for _, a := range pub.Schema.QI {
		encodeAttr(e, a)
	}
	encodeAttr(e, pub.Schema.Sensitive)

	// Pipeline parameters.
	e.u8(uint8(pub.Algorithm))
	e.f64(pub.P)
	e.u32(uint32(pub.K))

	// Recoding (cut-based algorithms only; KD publishes raw boxes).
	if pub.Recoding == nil {
		e.u8(0)
	} else {
		if len(pub.Recoding.Hierarchies) != pub.Schema.D() || len(pub.Recoding.Cuts) != pub.Schema.D() {
			return fmt.Errorf("snapshot: recoding covers %d hierarchies / %d cuts for %d QI attributes",
				len(pub.Recoding.Hierarchies), len(pub.Recoding.Cuts), pub.Schema.D())
		}
		e.u8(1)
		for j, h := range pub.Recoding.Hierarchies {
			e.i32s(h.Parents())
			e.i32s(pub.Recoding.Cuts[j].Nodes())
		}
	}
	return nil
}

// encodeGuarantee encodes the optional guarantee metadata block.
func encodeGuarantee(e *enc, g *pg.GuaranteeMetadata) {
	if g == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f64(g.Lambda)
	e.f64(g.Rho1)
	e.f64(g.Rho2)
	e.f64(g.Delta)
}

func encodeAttr(e *enc, a *dataset.Attribute) {
	e.str(a.Name)
	e.u8(uint8(a.Kind))
	e.u32(uint32(len(a.Values)))
	for _, v := range a.Values {
		e.str(v)
	}
}

// ---------------------------------------------------------------------------
// Body decoding

// dec is a bounds-checked little-endian reader over the verified body. Every
// accessor returns the zero value after the first error; callers check err
// once per structural unit.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) || d.off+n < d.off {
		d.fail("body truncated at offset %d (need %d more bytes)", d.off, n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *dec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *dec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *dec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 length field and sanity-bounds it against the bytes that
// can possibly remain, with elemSize the minimum encoded size of one element.
func (d *dec) count(what string, elemSize int) int {
	n := int(d.u32())
	if d.err == nil && n*elemSize > len(d.b)-d.off {
		d.fail("%s count %d exceeds remaining body", what, n)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *dec) str() string {
	n := d.count("string length", 1)
	return string(d.take(n))
}

func (d *dec) i32s(what string) []int32 {
	n := d.count(what, 4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

// decodePubMeta decodes the shared metadata prefix (schema, parameters,
// recoding) into a row-less publication shell.
func decodePubMeta(d *dec) (*pg.Published, error) {
	// Schema.
	nqi := d.count("QI attribute", 9)
	if d.err != nil {
		return nil, d.err
	}
	qi := make([]*dataset.Attribute, 0, nqi)
	for j := 0; j < nqi; j++ {
		a, err := decodeAttr(d)
		if err != nil {
			return nil, err
		}
		qi = append(qi, a)
	}
	sens, err := decodeAttr(d)
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(qi, sens)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	// Pipeline parameters.
	alg := pg.Algorithm(d.u8())
	switch alg {
	case pg.KD, pg.TDS, pg.FullDomain:
	default:
		if d.err == nil {
			return nil, fmt.Errorf("snapshot: unknown algorithm code %d", int(alg))
		}
	}
	p := d.f64()
	k := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return nil, fmt.Errorf("snapshot: retention probability %v outside [0,1]", p)
	}

	pub := &pg.Published{Schema: schema, Algorithm: alg, P: p, K: k}

	// Recoding.
	switch d.u8() {
	case 0:
	case 1:
		hiers := make([]*hierarchy.Hierarchy, schema.D())
		cuts := make([]*hierarchy.Cut, schema.D())
		for j := 0; j < schema.D(); j++ {
			parents := d.i32s("hierarchy node")
			cutNodes := d.i32s("cut node")
			if d.err != nil {
				return nil, d.err
			}
			h, err := hierarchy.FromParents(schema.QI[j].Size(), parents)
			if err != nil {
				return nil, fmt.Errorf("snapshot: attribute %q: %w", schema.QI[j].Name, err)
			}
			c, err := hierarchy.NewCut(h, cutNodes)
			if err != nil {
				return nil, fmt.Errorf("snapshot: attribute %q: %w", schema.QI[j].Name, err)
			}
			hiers[j], cuts[j] = h, c
		}
		rec, err := generalize.NewRecoding(schema, hiers, cuts)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		pub.Recoding = rec
	default:
		if d.err == nil {
			return nil, fmt.Errorf("snapshot: bad recoding presence flag")
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return pub, nil
}

// decodeGuarantee decodes the optional guarantee metadata block.
func decodeGuarantee(d *dec) (*pg.GuaranteeMetadata, error) {
	switch d.u8() {
	case 0:
	case 1:
		gm := &pg.GuaranteeMetadata{
			Lambda: d.f64(), Rho1: d.f64(), Rho2: d.f64(), Delta: d.f64(),
		}
		if d.err == nil {
			return gm, nil
		}
	default:
		if d.err == nil {
			return nil, fmt.Errorf("snapshot: bad guarantee presence flag")
		}
	}
	return nil, d.err
}

func decodeAttr(d *dec) (*dataset.Attribute, error) {
	name := d.str()
	kind := dataset.Kind(d.u8())
	n := d.count("attribute value", 4)
	if d.err != nil {
		return nil, d.err
	}
	if kind != dataset.Discrete && kind != dataset.Continuous {
		return nil, fmt.Errorf("snapshot: attribute %q has unknown kind %d", name, int(kind))
	}
	labels := make([]string, 0, n)
	for i := 0; i < n; i++ {
		labels = append(labels, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	a, err := dataset.NewAttribute(name, labels...)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	a.Kind = kind
	return a, nil
}
