package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// FuzzReadManifest exercises the shard-manifest decoder with arbitrary
// bytes, both as a whole file and as a body under a correct header (so the
// mutations reach the field decoder past the CRC): never panic, and every
// accepted manifest re-encodes through WriteManifest to bytes that read back
// to an equal manifest.
func FuzzReadManifest(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteManifest(&valid, &Manifest{
		K: 6, P: 0.3, Algorithm: "kd", Seed: 42, SourceRows: 9,
		Shards: []ShardEntry{
			{Path: "rel-00.pgsnap", CRC: 0xdeadbeef, Rows: 4, SourceRows: 5},
			{Path: "rel-01.pgsnap", CRC: 0x01020304, Rows: 3, SourceRows: 4},
		},
	}); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	f.Add(v)
	f.Add(v[:headerLen])                     // header only
	f.Add(v[:len(v)-1])                      // truncated body
	f.Add(append(append([]byte{}, v...), 0)) // trailing garbage
	f.Add(v[headerLen:])                     // the body alone
	nan := append([]byte{}, v[headerLen:]...)
	binary.LittleEndian.PutUint64(nan[4:12], math.Float64bits(math.NaN())) // p
	f.Add(nan)
	f.Add([]byte("PGMAN"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, withManifestHeader(data)} {
			m, err := ReadManifest(bytes.NewReader(file))
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := WriteManifest(&buf, m); err != nil {
				t.Fatalf("accepted manifest does not re-encode: %v", err)
			}
			back, err := ReadManifest(&buf)
			if err != nil {
				t.Fatalf("re-encoded manifest rejected: %v", err)
			}
			if !reflect.DeepEqual(back, m) {
				t.Fatalf("manifest changed across a re-encode:\n got %+v\nwant %+v", back, m)
			}
		}
	})
}

// withManifestHeader prefixes body with a well-formed manifest header.
func withManifestHeader(body []byte) []byte {
	hdr := make([]byte, headerLen, headerLen+len(body))
	copy(hdr, manifestMagic[:])
	binary.LittleEndian.PutUint16(hdr[6:8], ManifestVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.Checksum(body, castagnoli))
	return append(hdr, body...)
}
