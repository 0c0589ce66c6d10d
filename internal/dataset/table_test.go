package dataset

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		[]*Attribute{
			MustIntAttribute("Age", 0, 9),
			MustAttribute("Gender", "M", "F"),
		},
		MustAttribute("Disease", "flu", "cold", "cough"),
	)
}

func TestSchemaValidation(t *testing.T) {
	age := MustIntAttribute("Age", 0, 9)
	dis := MustAttribute("Disease", "flu", "cold")
	if _, err := NewSchema(nil, dis); err == nil {
		t.Fatal("no QI: want error")
	}
	if _, err := NewSchema([]*Attribute{age}, nil); err == nil {
		t.Fatal("nil sensitive: want error")
	}
	if _, err := NewSchema([]*Attribute{age, age}, dis); err == nil {
		t.Fatal("duplicate QI name: want error")
	}
	if _, err := NewSchema([]*Attribute{age}, age); err == nil {
		t.Fatal("sensitive reusing QI name: want error")
	}
	if _, err := NewSchema([]*Attribute{age, nil}, dis); err == nil {
		t.Fatal("nil QI entry: want error")
	}
	s := MustSchema([]*Attribute{age}, dis)
	if s.D() != 1 || s.Width() != 2 || s.SensitiveDomain() != 2 {
		t.Fatalf("D/Width/SensitiveDomain = %d/%d/%d", s.D(), s.Width(), s.SensitiveDomain())
	}
	if s.QIIndex("Age") != 0 || s.QIIndex("Nope") != -1 {
		t.Fatal("QIIndex mismatch")
	}
	if got := s.ColumnNames(); !reflect.DeepEqual(got, []string{"Age", "Disease"}) {
		t.Fatalf("ColumnNames = %v", got)
	}
}

func TestTableAppendAndAccessors(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Append([]int32{3, 1, 2}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := tb.AppendLabels("5", "M", "flu"); err != nil {
		t.Fatalf("AppendLabels: %v", err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if tb.QI(0, 0) != 3 || tb.QI(0, 1) != 1 || tb.Sensitive(0) != 2 {
		t.Fatalf("row 0 = %v", tb.Row(0))
	}
	if got := tb.QIVector(1); !reflect.DeepEqual(got, []int32{5, 0}) {
		t.Fatalf("QIVector(1) = %v", got)
	}
	tb.SetSensitive(1, 1)
	if tb.Sensitive(1) != 1 {
		t.Fatal("SetSensitive did not stick")
	}
	if tb.Owner(0) != 0 || tb.Owner(1) != 1 {
		t.Fatal("implicit owners should be row indices")
	}
}

func TestTableAppendErrors(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Append([]int32{1, 2}); err == nil {
		t.Fatal("short row: want error")
	}
	if err := tb.Append([]int32{99, 0, 0}); err == nil {
		t.Fatal("QI out of domain: want error")
	}
	if err := tb.Append([]int32{1, 0, 9}); err == nil {
		t.Fatal("sensitive out of domain: want error")
	}
	if err := tb.AppendLabels("1", "M"); err == nil {
		t.Fatal("short labels: want error")
	}
	if err := tb.AppendLabels("1", "X", "flu"); err == nil {
		t.Fatal("bad QI label: want error")
	}
	if err := tb.AppendLabels("1", "M", "plague"); err == nil {
		t.Fatal("bad sensitive label: want error")
	}
	if tb.Len() != 0 {
		t.Fatalf("failed appends must not add rows, Len = %d", tb.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend on bad row: want panic")
		}
	}()
	tb.MustAppend([]int32{1, 2})
}

func TestTableCloneIsDeep(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend([]int32{1, 0, 0})
	tb.Owners = []int{7}
	c := tb.Clone()
	c.SetSensitive(0, 2)
	c.Owners[0] = 9
	if tb.Sensitive(0) != 0 || tb.Owners[0] != 7 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTableSubsetPreservesOwners(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := int32(0); i < 5; i++ {
		tb.MustAppend([]int32{i, 0, i % 3})
	}
	s := tb.Subset([]int{4, 1})
	if s.Len() != 2 {
		t.Fatalf("subset Len = %d", s.Len())
	}
	if s.Owner(0) != 4 || s.Owner(1) != 1 {
		t.Fatalf("owners = %d,%d; want 4,1", s.Owner(0), s.Owner(1))
	}
	s.SetSensitive(0, 0)
	if tb.Sensitive(4) != 1 {
		t.Fatal("Subset shares row storage with original")
	}
}

func TestRandomSubset(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := int32(0); i < 8; i++ {
		tb.MustAppend([]int32{i, 0, 0})
	}
	rng := rand.New(rand.NewSource(1))
	s, err := tb.RandomSubset(3, rng)
	if err != nil || s.Len() != 3 {
		t.Fatalf("RandomSubset: %v len=%d", err, s.Len())
	}
	seen := map[int]bool{}
	for i := 0; i < s.Len(); i++ {
		if seen[s.Owner(i)] {
			t.Fatal("RandomSubset drew a duplicate row")
		}
		seen[s.Owner(i)] = true
	}
	if _, err := tb.RandomSubset(9, rng); err == nil {
		t.Fatal("oversized subset: want error")
	}
	if _, err := tb.RandomSubset(-1, rng); err == nil {
		t.Fatal("negative subset: want error")
	}
}

func TestValidate(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend([]int32{1, 1, 1})
	if err := tb.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	tb.cols[0].Set(0, 99)
	if err := tb.Validate(); err == nil {
		t.Fatal("corrupted QI: want error")
	}
	tb.cols[0].Set(0, 1)
	tb.cols[2].Set(0, 99)
	if err := tb.Validate(); err == nil {
		t.Fatal("corrupted sensitive: want error")
	}
	tb.cols[2].Set(0, 1)
	tb.Owners = []int{1, 2}
	if err := tb.Validate(); err == nil {
		t.Fatal("owner length mismatch: want error")
	}
	tb.Owners = nil
	tb.cols[0] = newColumn(tb.Schema.QI[0].Size())
	if err := tb.Validate(); err == nil {
		t.Fatal("column length mismatch: want error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := NewTable(testSchema(t))
	tb.MustAppend([]int32{3, 1, 2})
	tb.MustAppend([]int32{5, 0, 0})
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(tb.Schema, &buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if got.Len() != tb.Len() {
		t.Fatalf("round-trip Len = %d, want %d", got.Len(), tb.Len())
	}
	for i := 0; i < tb.Len(); i++ {
		if !reflect.DeepEqual(got.Row(i), tb.Row(i)) {
			t.Fatalf("row %d = %v, want %v", i, got.Row(i), tb.Row(i))
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema(t)
	cases := []string{
		"",                                   // no header
		"Bogus,Gender,Disease\n",             // wrong header name
		"Age,Gender,Disease\n1,M\n",          // short record
		"Age,Gender,Disease\n1,M,plague\n",   // unknown label
		"Age,Gender,Disease\n999,M,flu\n",    // out-of-range age label
		"Age,Gender,Disease\n1,M,flu,oops\n", // long record
	}
	for _, in := range cases {
		if _, err := ReadCSV(s, strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV(%q): want error", in)
		}
	}
}

func TestHospitalExample(t *testing.T) {
	h := Hospital()
	if h.Len() != 8 {
		t.Fatalf("hospital Len = %d, want 8", h.Len())
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Emily (ID 4) must be extraneous: no row owned by 4.
	for i := 0; i < h.Len(); i++ {
		if h.Owner(i) == 4 {
			t.Fatal("Emily must not own a microdata row")
		}
	}
	voters := HospitalVoterQI()
	if len(voters) != len(HospitalNames) {
		t.Fatalf("voter list size %d, want %d", len(voters), len(HospitalNames))
	}
	// Every microdata row's QI vector must appear in the voter list at the
	// owner's position (the equi-join of Section I).
	for i := 0; i < h.Len(); i++ {
		if !reflect.DeepEqual(h.QIVector(i), voters[h.Owner(i)]) {
			t.Fatalf("row %d QI %v != voter %v", i, h.QIVector(i), voters[h.Owner(i)])
		}
	}
	// Bob has bronchitis per Table Ia.
	if h.Schema.Sensitive.Label(h.Sensitive(0)) != "bronchitis" {
		t.Fatal("Bob's disease mismatch")
	}
}
