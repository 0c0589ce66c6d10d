package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"pgpub/internal/pg"
	"pgpub/internal/query"
)

// The snapshot decoders read files an operator hands the server, so they
// are fuzzed. Both targets start from the image TestRejectsCorruption
// flips byte by byte. An input is decoded as given, and once more as a
// compact image: the file without its page padding, which expand lays out
// again with the directory's offsets, lengths and CRCs and the header CRC
// recomputed. Padding is most of a real file, so the compact form spends
// the mutations on the metadata and the block contents, and resealing gets
// them past the checksums into the metadata decoder, the column shape
// checks and the index validation. The properties: no decoder panics; an
// image Read accepts is accepted by newMapped and passes Verify; an image
// newMapped accepts serves queries and either passes Verify or is refused
// by it, and when it passes, Read accepts it too.

// fuzzSeeds returns the compact seed image, a few structural variants of
// it, and short raw files.
func fuzzSeeds(f *testing.F) [][]byte {
	var buf bytes.Buffer
	g := &pg.GuaranteeMetadata{Lambda: 0.1, Rho1: 0.2, Rho2: 0.4, Delta: 0.2}
	if err := Write(&buf, tinyPublication(f), g, nil); err != nil {
		f.Fatal(err)
	}
	img := compact(buf.Bytes())
	metaEnd := headerLen + int(binary.LittleEndian.Uint64(img[8:16]))
	return [][]byte{
		img,
		img[:metaEnd],                     // metadata without blocks
		img[:len(img)-1],                  // last block cut short
		append(bytes.Clone(img), 0, 0, 0), // trailing bytes
		buf.Bytes()[:headerLen],
		[]byte("PGSNAP"),
	}
}

// compact drops a valid image's page padding: header, metadata, then each
// block's length prefix and payload back to back.
func compact(img []byte) []byte {
	n := int(binary.LittleEndian.Uint64(img[8:16]))
	out := bytes.Clone(img[:headerLen+n])
	dir := out[len(out)-len(v2Blocks)*dirEntryLen:]
	for i := range v2Blocks {
		e := dir[i*dirEntryLen:]
		off, sz := binary.LittleEndian.Uint64(e[0:8]), binary.LittleEndian.Uint64(e[8:16])
		out = append(out, img[off:off+prefixLen+sz]...)
	}
	return out
}

// expand lays a compact image out as a file: each block, read from its
// length prefix, goes to the next page boundary, and the directory (the
// metadata's last entries, when it is long enough to hold them) and the
// header CRC are rewritten to match. A block cut short ends the file.
func expand(data []byte) []byte {
	if len(data) < headerLen {
		return bytes.Clone(data)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n > uint64(len(data)-headerLen) {
		return bytes.Clone(data)
	}
	out := bytes.Clone(data[:headerLen+int(n)])
	rest := data[headerLen+int(n):]
	type block struct{ off, n uint64 }
	var blocks []block
	for len(blocks) < len(v2Blocks) && len(rest) >= prefixLen {
		sz := min(binary.LittleEndian.Uint64(rest), uint64(len(rest)-prefixLen))
		off := alignUp(len(out))
		out = append(out, make([]byte, off-len(out))...)
		out = binary.LittleEndian.AppendUint64(out, sz)
		out = append(out, rest[prefixLen:prefixLen+sz]...)
		blocks = append(blocks, block{uint64(off), sz})
		rest = rest[prefixLen+sz:]
	}
	meta := out[headerLen : headerLen+int(n)]
	if dir := len(v2Blocks) * dirEntryLen; len(meta) >= dir {
		for i, b := range blocks {
			e := meta[len(meta)-dir+i*dirEntryLen:]
			binary.LittleEndian.PutUint64(e[0:8], b.off)
			binary.LittleEndian.PutUint64(e[8:16], b.n)
			binary.LittleEndian.PutUint32(e[16:20], crc32.Checksum(out[b.off+prefixLen:b.off+prefixLen+b.n], castagnoli))
		}
	}
	binary.LittleEndian.PutUint32(out[16:20], crc32.Checksum(meta, castagnoli))
	return out
}

func FuzzRead(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, expand(data)} {
			r := bytes.NewReader(img)
			rel, err := Read(r)
			if err != nil {
				continue
			}
			// Read leaves bytes after the snapshot unread; the image it
			// consumed is a whole file to the mapped reader.
			whole := bytes.Clone(img[:len(img)-r.Len()])
			m, err := newMapped(whole, false, nil)
			if err != nil {
				t.Fatalf("Read accepted an image newMapped refuses: %v", err)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("Read accepted an image Verify refuses: %v", err)
			}
			if m.CRC != rel.CRC || m.Pub.Len() != rel.Pub.Len() {
				t.Fatalf("decoders disagree: CRC %08x/%08x, rows %d/%d", m.CRC, rel.CRC, m.Pub.Len(), rel.Pub.Len())
			}
			var again bytes.Buffer
			if err := Write(&again, rel.Pub, rel.Guarantee, rel.Chain); err != nil {
				t.Fatalf("accepted release does not re-encode: %v", err)
			}
			if _, err := Read(&again); err != nil {
				t.Fatalf("re-encoded release rejected: %v", err)
			}
		}
	})
}

func FuzzNewMapped(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, img := range [][]byte{data, expand(data)} {
			m, err := newMapped(bytes.Clone(img), false, nil)
			if err != nil {
				continue
			}
			// NewIndexFromParts validated the structure, so serving must
			// not fault whatever the float blocks hold.
			s := m.Index.Schema()
			q := query.CountQuery{QI: make([]query.Range, s.D())}
			for j := range q.QI {
				q.QI[j] = query.Range{Lo: 0, Hi: int32(s.QI[j].Size() - 1)}
			}
			m.Index.Count(q)
			for j := range q.QI {
				q.QI[j].Hi /= 2
				m.Index.Count(q)
			}
			if err := m.Verify(); err != nil {
				continue
			}
			if _, err := Read(bytes.NewReader(img)); err != nil {
				t.Fatalf("Verify passed an image Read refuses: %v", err)
			}
		}
	})
}

// TestExpandCompact checks the fuzz layout helpers: a valid image survives
// compact and expand byte for byte, so the seeds reach the decoders whole.
func TestExpandCompact(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, tinyPublication(t), nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(expand(compact(buf.Bytes())), buf.Bytes()) {
		t.Fatal("expand(compact(image)) differs from the image")
	}
}
