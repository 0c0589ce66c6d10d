package pg

import (
	"testing"

	"pgpub/internal/dataset"
)

var columnsSink *RowColumns

// Columns hands out the stored rows: reading them copies nothing.
func TestColumnsAllocs(t *testing.T) {
	d := dataset.Hospital()
	pub, err := Publish(d, hospitalHiers(d.Schema), Config{K: 2, P: 0.25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { columnsSink = pub.Columns() }); a != 0 {
		t.Fatalf("Columns allocates %v times per call, want 0", a)
	}
}
