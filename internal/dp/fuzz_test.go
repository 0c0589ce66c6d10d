package dp

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseBudgets exercises the budgets-file parser with arbitrary bodies:
// never panic, and every accepted ledger provisions at least one key, each
// with 0 < ε_per_query ≤ ε_total < +Inf — the invariants Spend relies on to
// never over-spend.
func FuzzParseBudgets(f *testing.F) {
	for _, seed := range []string{
		"alice 0.5 0.1\nbob 100 0.25\n",
		"# analysts\nalice 0.5 0.1 # five queries\n",
		"alice 1 1\n",
		"alice 0.1 0.5\n",
		"alice NaN 0.1\n",
		"alice +Inf 0.1\n",
		"alice 1e308 1e-308\n",
		"alice 0x1p-2 0x1p-3\n",
		"alice -0 -0\n",
		"alice 0.5 0.1\nalice 1 0.1\n",
		"alice 0.5\n",
		"\talice\t0.5\t0.1\r\n",
		"",
		"#",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		l, err := ParseBudgets(strings.NewReader(body))
		if err != nil {
			return
		}
		if l.Len() < 1 {
			t.Fatal("accepted a ledger with no keys")
		}
		for _, k := range l.Keys() {
			b := l.Key(k)
			if !(b.PerQuery > 0) || b.PerQuery > b.Total || math.IsInf(b.Total, 0) {
				t.Fatalf("key %q accepted with ε_total=%v ε_per_query=%v", k, b.Total, b.PerQuery)
			}
			if k == "" || strings.ContainsAny(k, " \t\r\n#") {
				t.Fatalf("accepted key %q", k)
			}
		}
	})
}
