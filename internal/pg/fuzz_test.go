package pg

import (
	"reflect"
	"strings"
	"testing"

	"pgpub/internal/dataset"
)

// FuzzParseBoxLabel exercises the interval parser with arbitrary input: it
// must never panic, and every accepted label must yield a valid in-domain
// interval that round-trips through the printer.
func FuzzParseBoxLabel(f *testing.F) {
	for _, seed := range []string{
		"*", "25", "[20-64]", "[20-", "-]", "[]", "[-]", "[20-64", "20-64]", "[a-b]", "[89-20]",
		// Degenerate interval punctuation and whitespace shapes.
		"", " ", "  *", "* ", "[ - ]", "[--]", "[---]", "[20--64]", "[-20-64]", "[20-64-]",
		// Multi-dash bodies exercise every split position.
		"[20-40-64]", "[20-20-20-20]", "[*-*]", "[[20-64]]",
		// Boundary and out-of-domain numerals.
		"[20-89]", "[19-90]", "[000020-89]", "[+20-64]", "[20-1e2]", "[٢٠-٦٤]",
	} {
		f.Add(seed)
	}
	a := dataset.MustIntAttribute("Age", 20, 89)
	f.Fuzz(func(t *testing.T, s string) {
		lo, hi, err := parseBoxLabel(s, a)
		if err != nil {
			return
		}
		if lo < 0 || int(hi) >= a.Size() || lo > hi {
			t.Fatalf("accepted %q as invalid interval [%d,%d]", s, lo, hi)
		}
	})
}

// FuzzReadCSV exercises the publication loader with arbitrary CSV bodies:
// never panic; every accepted publication must validate, and must write
// back through WriteCSV and read back to identical columns.
func FuzzReadCSV(f *testing.F) {
	f.Add("Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,2\n")
	f.Add("Age,Gender,Zipcode,Disease,G\n[20-39],F,[10-29],pneumonia,3\n")
	f.Add("garbage")
	f.Add("Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,-1\n")
	// Empty and whitespace fields in every position.
	f.Add("Age,Gender,Zipcode,Disease,G\n,,,,\n")
	f.Add("Age,Gender,Zipcode,Disease,G\n , , , , \n")
	f.Add("Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,\n")
	f.Add("Age,Gender,Zipcode,Disease,G\n\"\",M,*,bronchitis,2\n")
	// Header-only, truncated, and shape-violating bodies.
	f.Add("Age,Gender,Zipcode,Disease,G\n")
	f.Add("Age,Gender,Zipcode,Disease\n*,M,*,bronchitis\n")
	f.Add("Age,Gender,Zipcode,Disease,G,Extra\n*,M,*,bronchitis,2,9\n")
	f.Add("G,Disease,Zipcode,Gender,Age\n2,bronchitis,*,M,*\n")
	// Interval-label corner cases inside a record, quoting, CRLF, huge G.
	f.Add("Age,Gender,Zipcode,Disease,G\n[20-39-64],M,[--],bronchitis,2\n")
	f.Add("Age,Gender,Zipcode,Disease,G\r\n\"[20-39]\",F,\"[10-29]\",pneumonia,3\r\n")
	f.Add("Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,999999999999999999999\n")
	f.Add("Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,+2\n")
	// Overlapping rows must be rejected by Validate, not accepted silently.
	f.Add("Age,Gender,Zipcode,Disease,G\n*,M,*,bronchitis,2\n*,M,*,flu,2\n")
	schema := dataset.HospitalSchema()
	f.Fuzz(func(t *testing.T, body string) {
		pub, err := ReadCSV(schema, strings.NewReader(body), 0.3)
		if err != nil {
			return
		}
		if err := pub.Validate(); err != nil {
			t.Fatalf("accepted invalid publication: %v", err)
		}
		var buf strings.Builder
		if err := pub.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted publication: %v", err)
		}
		back, err := ReadCSV(schema, strings.NewReader(buf.String()), 0.3)
		if err != nil {
			t.Fatalf("rewritten CSV refused: %v\n%s", err, buf.String())
		}
		if back.K != pub.K || !reflect.DeepEqual(back.Columns(), pub.Columns()) {
			t.Fatalf("columns drifted through WriteCSV:\n%s", buf.String())
		}
	})
}

// FuzzReadMetadata exercises the release-metadata parser with arbitrary —
// including malformed — documents: never panic, and every accepted document
// must carry fields inside their documented ranges and name a known
// Phase-2 algorithm.
func FuzzReadMetadata(f *testing.F) {
	f.Add(`{"retention_probability":0.3,"k":6,"algorithm":"kd","rows":100}`)
	f.Add(`{"retention_probability":-1,"k":6,"algorithm":"kd","rows":100}`)
	f.Add(`{"retention_probability":0.3,"k":0,"algorithm":"","rows":-5}`)
	f.Add(`{"retention_probability":"0.3"}`)
	f.Add(`{"k":1e99}`)
	f.Add(`{"retention_probability":0.3,"k":6,"rows":1,"guarantee":{"lambda":0.1}}`)
	f.Add(`{"unknown_field":true}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	f.Add("{\"retention_probability\":0.3,\"k\":6,\"rows\":1}\n{\"k\":2}")
	f.Add(`{"retention_probability":0.3,"k":6,"algorithm":"tds","rows":100}`)
	f.Add(`{"retention_probability":0.3,"k":6,"algorithm":"mondrian","rows":100}`)
	f.Fuzz(func(t *testing.T, body string) {
		m, err := ReadMetadata(strings.NewReader(body))
		if err != nil {
			return
		}
		if m.P < 0 || m.P > 1 || m.K < 1 || m.Rows < 0 {
			t.Fatalf("accepted out-of-range metadata: %+v", m)
		}
		if _, err := ParseAlgorithm(m.Algorithm); err != nil {
			t.Fatalf("accepted metadata naming an unknown algorithm: %+v", m)
		}
	})
}

// FuzzReadDelta exercises the delta-file parser with arbitrary bodies and
// replays every accepted delta against the hospital table: never panic;
// accepted inserts must validate under the schema; and ApplyDelta either
// refuses the delta or yields a valid table of exactly parent − deletes +
// inserts rows.
func FuzzReadDelta(f *testing.F) {
	for _, seed := range []string{
		"-,0\n-,3\n",
		"+,[20-39],M,*,bronchitis\n",
		"# comment\n-,1\n+,25,F,12000,flu\n",
		"+,25,F,12000\n",
		"-,1,2\n",
		"-,-1\n",
		"-,0\n-,0\n",
		"-,99999999999999999999\n",
		"*,0\n",
		"+,\"25\",F,12000,flu\r\n",
		"\"-\",0\n",
		"",
		"\n\n",
	} {
		f.Add(seed)
	}
	d := dataset.Hospital()
	f.Fuzz(func(t *testing.T, body string) {
		dl, err := ReadDelta(d.Schema, strings.NewReader(body))
		if err != nil {
			return
		}
		inserts := 0
		if dl.Inserts != nil {
			if err := dl.Inserts.Validate(); err != nil {
				t.Fatalf("accepted invalid inserts: %v", err)
			}
			inserts = dl.Inserts.Len()
		}
		out, err := ApplyDelta(d, dl)
		if err != nil {
			return
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("post-delta table invalid: %v", err)
		}
		if want := d.Len() - len(dl.Deletes) + inserts; out.Len() != want {
			t.Fatalf("post-delta table has %d rows, want %d", out.Len(), want)
		}
	})
}
