package pgpub

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pgpub/internal/snapshot"
)

// The curated documentation set whose cross-references CI keeps honest.
// Driver/scratch files (ISSUE.md, SNIPPETS.md, ...) are deliberately out.
var docFiles = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"docs/ARCHITECTURE.md",
	"docs/ATTACKS.md",
	"docs/DP.md",
	"docs/OBSERVABILITY.md",
	"docs/REPUBLICATION.md",
	"docs/SERVING.md",
}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocLinks resolves every relative markdown link in the documentation
// set and fails on dangling targets, so renames cannot silently orphan the
// docs. External links (http/https/mailto) are not fetched.
func TestDocLinks(t *testing.T) {
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") ||
				strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // pure in-page anchor
			}
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: dangling link %q (resolved %s): %v", doc, m[1], resolved, err)
			}
		}
	}
}

// TestDocCatalogCoversMetrics pins the docs-to-code contract introduced with
// the observability layer: the metric names the code records must appear in
// the catalog, so docs/OBSERVABILITY.md cannot rot silently.
func TestDocCatalogCoversMetrics(t *testing.T) {
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	catalog := string(data)
	for _, name := range []string{
		"pg.publish", "pg.phase1", "pg.phase2", "pg.phase3",
		"pg.publish.calls", "pg.rows.in", "pg.rows.published",
		"pg.phase1.retained", "pg.phase1.redrawn", "pg.phase2.groups",
		"generalize.groupby.rows_scanned", "generalize.tds.rounds",
		"generalize.tds.groups_split", "generalize.tds.groups",
		"generalize.lattice.nodes_evaluated",
		"query.index.build", "query.count.latency",
		"query.index.entries", "query.index.nodes", "query.index.grids",
		"query.answered.grid", "query.answered.exact_reanswer", "query.answered.kd",
		"serve.requests.query", "serve.requests.batch", "serve.requests.metadata",
		"serve.errors", "serve.shed", "serve.timeouts",
		"serve.cache.hits", "serve.cache.misses", "serve.cache.evictions",
		"serve.coalesced", "serve.latency.query", "serve.latency.batch",
		"coord.requests.query", "coord.requests.batch", "coord.requests.metadata",
		"coord.errors", "coord.fanout.latency", "coord.hedge.fired",
		"coord.hedge.won", "coord.shard.errors", "coord.shard.timeouts",
		"fleet.queries", "fleet.retries", "fleet.latency.query",
		"fleet.victims", "fleet.violations", "fleet.probe.fallbacks",
		"fleet.cut.nodes",
		"repub.publish", "repub.delta.inserts", "repub.delta.deletes",
		"repub.releases", "repub.rows",
		"serve.reload.attempts", "serve.reload.swapped",
		"serve.reload.rejected", "serve.reload.errors",
		"serve.reload.latency", "serve.release",
		"coord.reload.attempts", "coord.reload.swapped",
		"coord.reload.rejected", "coord.reload.errors", "coord.release",
		"coord.reload.latency", "coord.shed", "coord.timeouts",
		"coord.cache.hits", "coord.cache.misses", "coord.cache.evictions",
		"coord.coalesced", "coord.latency.query", "coord.latency.batch",
		"dp.queries", "dp.rejected", "dp.spend", "dp.exhausted",
		"dp.remaining.",
	} {
		if !strings.Contains(catalog, name) {
			t.Errorf("docs/OBSERVABILITY.md: metric %q missing from the catalog", name)
		}
	}
}

// TestDocCoversSnapshotV2 pins the snapshot format spec to the code: every
// column block of the version-2 layout must be named in docs/SERVING.md's
// field-level description, along with the structural facts a consumer
// implementing the format needs, so the spec cannot drift from the writer.
func TestDocCoversSnapshotV2(t *testing.T) {
	data, err := os.ReadFile("docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	spec := string(data)
	for _, name := range snapshot.V2BlockNames() {
		if !strings.Contains(spec, "`"+name+"`") {
			t.Errorf("docs/SERVING.md: v2 block %q missing from the format spec", name)
		}
	}
	for _, fact := range []string{
		"PGSNAP", "CRC-32C", "4096", "length prefix", "-mmap", "OpenMapped",
	} {
		if !strings.Contains(spec, fact) {
			t.Errorf("docs/SERVING.md: format fact %q missing from the spec", fact)
		}
	}
}

// TestDocCoversReleaseChain pins the release-chain spec to the code: every
// field of the version-3 chain block must be named in
// docs/REPUBLICATION.md's field-level table, along with the facts a chain
// producer, auditor or hot-swapping server relies on, so the multi-release
// contract cannot drift from the implementation.
func TestDocCoversReleaseChain(t *testing.T) {
	data, err := os.ReadFile("docs/REPUBLICATION.md")
	if err != nil {
		t.Fatal(err)
	}
	spec := string(data)
	for _, name := range snapshot.ChainFieldNames() {
		if !strings.Contains(spec, "`"+name+"`") {
			t.Errorf("docs/REPUBLICATION.md: chain field %q missing from the spec", name)
		}
	}
	for _, fact := range []string{
		"header CRC", "presence flag", "0x52455055", "ReleaseSeed",
		"-base", "-delta", "-chain", "VerifyChain",
		"/v1/admin/reload", "SIGHUP", "409", "-releases", "-churn",
	} {
		if !strings.Contains(spec, fact) {
			t.Errorf("docs/REPUBLICATION.md: chain fact %q missing from the spec", fact)
		}
	}
}

// TestDocCoversDP pins the differential-privacy serving spec to the code:
// the flags, endpoints, headers, status codes and accounting facts a tenant
// or an auditing client relies on must stay in docs/DP.md.
func TestDocCoversDP(t *testing.T) {
	data, err := os.ReadFile("docs/DP.md")
	if err != nil {
		t.Fatal(err)
	}
	spec := string(data)
	for _, fact := range []string{
		"-dp-budgets", "-dp-seed", "-dp-key",
		"X-API-Key", "X-PG-Release", "/v1/dp/budget",
		"401", "403", "429", "Retry-After",
		"Laplace", "ε_total", "ε_per_query", "ε/2",
		"crypto/rand", "splitmix64", "laplace",
	} {
		if !strings.Contains(spec, fact) {
			t.Errorf("docs/DP.md: fact %q missing from the spec", fact)
		}
	}
}

// TestDocCoversShardManifest pins the sharded-release spec the same way:
// the manifest format facts and the coordinator semantics a client or a
// re-implementing consumer relies on must stay in docs/SERVING.md.
func TestDocCoversShardManifest(t *testing.T) {
	data, err := os.ReadFile("docs/SERVING.md")
	if err != nil {
		t.Fatal(err)
	}
	spec := string(data)
	for _, fact := range []string{
		"PGMAN", ".pgman", "-shards", "-coordinator", "-shard-urls",
		"-hedge", "-shard-timeout", "/v1/shards",
		"502", "shard N:", "round-robin",
	} {
		if !strings.Contains(spec, fact) {
			t.Errorf("docs/SERVING.md: sharding fact %q missing from the spec", fact)
		}
	}
}

// docFlag matches one backquoted flag name, e.g. `-seed`.
var docFlag = regexp.MustCompile("`-([a-z0-9-]+)`")

// TestDocAttackFlagsDefined keeps docs/ATTACKS.md's flag table honest: every
// flag the "Flags and output" table lists must be defined by
// cmd/pgattack/main.go, so a row for a removed flag fails here.
func TestDocAttackFlagsDefined(t *testing.T) {
	data, err := os.ReadFile("docs/ATTACKS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "## Flags and output")
	if !ok {
		t.Fatal(`docs/ATTACKS.md: no "Flags and output" section`)
	}
	if i := strings.Index(table, "\n## "); i >= 0 {
		table = table[:i]
	}
	defined := definedFlags(t, "cmd/pgattack/main.go")
	listed := 0
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range docFlag.FindAllStringSubmatch(cells[1], -1) {
			listed++
			if !defined[m[1]] {
				t.Errorf("docs/ATTACKS.md lists -%s, which cmd/pgattack does not define", m[1])
			}
		}
	}
	if listed == 0 {
		t.Fatal("docs/ATTACKS.md: the flag table lists no flags")
	}
}

// definedFlags parses a command's source and returns the names of the flags
// it defines: the first argument of every flag.<Kind>(...) call.
func definedFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s defines no flags", path)
	}
	return names
}
