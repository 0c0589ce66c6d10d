//go:build unix

// Package cmd_test drives the shipped binaries end to end: it builds the
// CLIs, publishes releases with pgpublish, serves them with pgserve, and
// checks what only a real process can show — served answers equal the
// offline pgquery answers, signals hot-swap and drain the server, DP keys
// are refused and exhausted over the wire, and the attack fleet finds no
// bound violation against a live server. Everything an in-process test
// already pins (drain under load, repub determinism across GOMAXPROCS,
// metadata shape) stays with that test.
package cmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// deadline bounds every wait on a process: a server's start, a reload
// showing up, a drain. The healthy path takes milliseconds.
const deadline = 20 * time.Second

// ageQuery is the query every equivalence check asks: Age 30..50 with
// income codes 25..49, as a JSON body and as pgquery flags.
const ageQuery = `{"where":[{"attr":"Age","lo":"30","hi":"50"}],"sensitive":[25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49]}`

var ageQueryFlags = []string{"-where", "Age=30..50", "-income", "25..49"}

// TestCLIEndToEnd builds pgpublish, pgquery, pgserve, pgattack and salgen
// once and runs each scenario against them as a parallel subtest. Servers
// bind 127.0.0.1:0 and announce their address on stderr; no port is fixed.
func TestCLIEndToEnd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the end-to-end test builds the CLIs with the go command, which is not on PATH: %v", err)
	}
	statSources(t)
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator),
		"./pgpublish", "./pgquery", "./pgserve", "./pgattack", "./salgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the CLIs: %v\n%s", err, out)
	}
	e := &env{bin: bin}

	// One small kd release shared by the single-snapshot scenarios.
	snap := filepath.Join(t.TempDir(), "release.pgsnap")
	e.run(t, "pgpublish", "-dataset", "sal", "-n", "5000", "-k", "6", "-p", "0.3", "-seed", "5",
		"-out", os.DevNull, "-snapshot", snap)

	t.Run("snapshot", func(t *testing.T) { t.Parallel(); testSnapshot(t, e, snap) })
	t.Run("csv", func(t *testing.T) { t.Parallel(); testCSV(t, e) })
	t.Run("cardinality", func(t *testing.T) { t.Parallel(); testCardinality(t, e) })
	t.Run("procs", func(t *testing.T) { t.Parallel(); testProcs(t, e) })
	t.Run("fleet", func(t *testing.T) { t.Parallel(); testFleet(t, e, snap) })
	t.Run("dp", func(t *testing.T) { t.Parallel(); testDP(t, e, snap) })
	t.Run("shards", func(t *testing.T) { t.Parallel(); testShards(t, e) })
	t.Run("chain", func(t *testing.T) { t.Parallel(); testChain(t, e) })
	t.Run("repub", func(t *testing.T) { t.Parallel(); testRepub(t, e) })
}

// statSources stats go.mod and every Go file under cmd/ and internal/,
// the sources the CLIs are built from. go test caches a passing result
// keyed on the test binary and on the files the test opens or stats; this
// package imports none of the code it drives, so without these stats an
// edit to, say, internal/serve would leave the cached pass standing.
func statSources(t *testing.T) {
	t.Helper()
	if _, err := os.Stat(filepath.Join("..", "go.mod")); err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{".", filepath.Join("..", "internal")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
				return err
			}
			_, err = os.Stat(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// testSnapshot: the served estimate equals pgquery's over the same
// snapshot, and SIGTERM drains the server to exit 0.
func testSnapshot(t *testing.T, e *env, snap string) {
	srv := e.serve(t, "-snapshot", snap)
	served := srv.estimate(t, "", ageQuery)
	if off := e.offline(t, append([]string{"-snapshot", snap}, ageQueryFlags...)...); fmt.Sprintf("%.1f", served) != off {
		t.Fatalf("served estimate %.1f, pgquery -snapshot prints %s", served, off)
	}
	srv.stop(t)
}

// testCSV: a server on a CSV release announces the algorithm and k of the
// metadata file published with it, and serves the estimate pgquery prints
// over the same CSV and metadata.
func testCSV(t *testing.T, e *env) {
	dir := t.TempDir()
	csv, meta := filepath.Join(dir, "tds.csv"), filepath.Join(dir, "tds.json")
	e.run(t, "pgpublish", "-dataset", "sal", "-n", "5000", "-k", "6", "-p", "0.3", "-seed", "5",
		"-algorithm", "tds", "-out", csv, "-meta", meta)
	srv := e.serve(t, "-in", csv, "-meta", meta)
	var md struct {
		Algorithm string `json:"algorithm"`
		K         int    `json:"k"`
	}
	code, _, body := srv.call(t, "GET", "/v1/metadata", "", "")
	if code != http.StatusOK || !decode(t, body, &md) || md.Algorithm != "tds" || md.K != 6 {
		t.Fatalf("/v1/metadata of a TDS CSV release: %d %s, want algorithm tds and k 6", code, body)
	}
	served := srv.estimate(t, "", ageQuery)
	if off := e.offline(t, append([]string{"-in", csv, "-meta", meta}, ageQueryFlags...)...); fmt.Sprintf("%.1f", served) != off {
		t.Fatalf("served estimate %.1f, pgquery -in -meta prints %s", served, off)
	}
	srv.stop(t)
}

// testCardinality: pgpublish -s publishes under k = ceil(1/s), the same
// bytes as the matching -k, and refuses -s outside (0,1] or next to -k.
func testCardinality(t *testing.T, e *env) {
	hospital := []string{"-dataset", "hospital", "-p", "0.25", "-seed", "2008"}
	publish := func(flags ...string) string {
		return e.run(t, "pgpublish", append(flags, hospital...)...)
	}
	for _, c := range []struct{ s, k string }{{"0.5", "2"}, {"0.3", "4"}} {
		if got, want := publish("-s", c.s), publish("-k", c.k); got != want {
			t.Fatalf("pgpublish -s %s:\n%s\nwant the bytes of -k %s:\n%s", c.s, got, c.k, want)
		}
	}
	for _, flags := range [][]string{{"-k", "2", "-s", "0.1"}, {"-s", "1.5"}} {
		cmd := exec.Command(filepath.Join(e.bin, "pgpublish"), append(flags, hospital...)...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("pgpublish %s exited 0:\n%s", strings.Join(flags, " "), out)
		}
	}
}

// testProcs: pgpublish writes the same CSV and snapshot bytes under
// GOMAXPROCS=1 and GOMAXPROCS=8, for every Phase-2 algorithm.
func testProcs(t *testing.T, e *env) {
	dir := t.TempDir()
	for _, alg := range []string{"kd", "tds", "full-domain"} {
		var files [2][]byte
		for i, procs := range []string{"1", "8"} {
			csv := filepath.Join(dir, alg+"-"+procs+".csv")
			snap := filepath.Join(dir, alg+"-"+procs+".pgsnap")
			e.runEnv(t, []string{"GOMAXPROCS=" + procs}, "pgpublish", "-dataset", "sal", "-n", "5000",
				"-k", "6", "-p", "0.3", "-seed", "42", "-algorithm", alg, "-out", csv, "-snapshot", snap)
			files[i] = append(readFile(t, csv), readFile(t, snap)...)
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("pgpublish -algorithm %s: CSV or snapshot bytes differ between GOMAXPROCS=1 and GOMAXPROCS=8", alg)
		}
	}
}

// testFleet: the attack fleet finds no Theorem 1-3 violation against a
// server answering from the mapped snapshot, and its report is the same
// bytes under GOMAXPROCS=2 and GOMAXPROCS=7.
func testFleet(t *testing.T, e *env, snap string) {
	srv := e.serve(t, "-snapshot", snap, "-mmap")
	dir := t.TempDir()
	var reports [][]byte
	for _, procs := range []string{"2", "7"} {
		out := filepath.Join(dir, "fleet-"+procs+".json")
		e.runEnv(t, []string{"GOMAXPROCS=" + procs}, "pgattack", "-exp", "fleet", "-url", srv.api,
			"-n", "5000", "-seed", "5", "-victims", "12", "-json", out)
		reports = append(reports, readFile(t, out))
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatalf("fleet report differs between GOMAXPROCS=2 and 7:\n%s\n---\n%s", reports[0], reports[1])
	}
	checkNoViolations(t, reports[0])
	srv.stop(t)
}

// testDP: a DP server refuses a missing key (401) and an unknown one
// (403), re-serves the same noised estimate for a repeated query, matches
// pgquery's offline reproduction of the noise, and refuses a spent key
// with 429 + Retry-After while another key still answers.
func testDP(t *testing.T, e *env, snap string) {
	// alice: ε_total 0.2 at 0.1 per query, exactly two answers.
	budgets := filepath.Join(t.TempDir(), "budgets.txt")
	writeFile(t, budgets, "alice 0.2 0.1\nbob 100 0.1\n")
	srv := e.serve(t, "-snapshot", snap, "-dp-budgets", budgets, "-dp-seed", "7")

	if code, _, body := srv.call(t, "POST", "/v1/query", "", ageQuery); code != http.StatusUnauthorized {
		t.Fatalf("query without X-API-Key: %d %s, want 401", code, body)
	}
	if code, _, body := srv.call(t, "POST", "/v1/query", "mallory", ageQuery); code != http.StatusForbidden {
		t.Fatalf("query with an unknown key: %d %s, want 403", code, body)
	}
	est1 := srv.estimate(t, "alice", ageQuery)
	est2 := srv.estimate(t, "alice", ageQuery)
	if math.Float64bits(est1) != math.Float64bits(est2) {
		t.Fatalf("a repeated DP query re-served %v then %v; the noise must not average away", est1, est2)
	}
	off := e.offline(t, append([]string{"-snapshot", snap, "-dp-budgets", budgets,
		"-dp-key", "alice", "-dp-seed", "7"}, ageQueryFlags...)...)
	if fmt.Sprintf("%.1f", est1) != off {
		t.Fatalf("served DP estimate %.1f, pgquery reproduces %s", est1, off)
	}

	code, hdr, body := srv.call(t, "POST", "/v1/query", "alice", ageQuery)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" || !strings.Contains(string(body), "budget exhausted") {
		t.Fatalf("query on a spent key: %d (Retry-After %q) %s, want 429 with Retry-After and \"budget exhausted\"",
			code, hdr.Get("Retry-After"), body)
	}
	var resp struct {
		DP struct {
			Epsilon float64 `json:"epsilon"`
		} `json:"dp"`
	}
	if code, _, body := srv.call(t, "POST", "/v1/query", "bob", ageQuery); code != http.StatusOK {
		t.Fatalf("bob's query after alice ran out: %d %s", code, body)
	} else if decode(t, body, &resp); resp.DP.Epsilon != 0.1 {
		t.Fatalf("bob's answer charged ε=%v, want 0.1: %s", resp.DP.Epsilon, body)
	}
	srv.stop(t)
}

// testShards: a sharded publish refuses a CSV output and writes nothing, a
// coordinator over four shard servers answers a merged query equal to
// pgquery -manifest, and SIGTERM drains all five processes.
func testShards(t *testing.T, e *env) {
	dir := t.TempDir()
	base, man := filepath.Join(dir, "release.pgsnap"), filepath.Join(dir, "release.pgman")
	publish := []string{"-dataset", "sal", "-n", "5000", "-k", "6", "-p", "0.3", "-seed", "5",
		"-shards", "4", "-snapshot", base, "-manifest", man}

	refused := exec.Command(filepath.Join(e.bin, "pgpublish"), append(publish, "-out", filepath.Join(dir, "x.csv"))...)
	if out, err := refused.CombinedOutput(); err == nil {
		t.Fatalf("pgpublish -shards -out exited 0:\n%s", out)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("refused sharded publish left %v (%v)", left, err)
	}

	e.run(t, "pgpublish", publish...)

	shards := make([]*server, 4)
	urls := make([]string, len(shards))
	for s := range shards {
		shards[s] = e.serve(t, "-snapshot", filepath.Join(dir, fmt.Sprintf("release-%02d.pgsnap", s)))
		urls[s] = shards[s].api
	}
	coord := e.serve(t, "-coordinator", "-manifest", man, "-shard-urls", strings.Join(urls, ","))

	var resp struct {
		Estimate float64 `json:"estimate"`
		Source   string  `json:"source"`
	}
	code, _, body := coord.call(t, "POST", "/v1/query", "", ageQuery)
	if code != http.StatusOK {
		t.Fatalf("coordinator query: %d %s", code, body)
	}
	if decode(t, body, &resp); resp.Source != "merged" {
		t.Fatalf("coordinator answer source %q, want merged: %s", resp.Source, body)
	}
	if off := e.offline(t, append([]string{"-manifest", man}, ageQueryFlags...)...); fmt.Sprintf("%.1f", resp.Estimate) != off {
		t.Fatalf("merged estimate %.1f, pgquery -manifest prints %s", resp.Estimate, off)
	}
	coord.stop(t)
	for _, s := range shards {
		s.stop(t)
	}
}

// testChain publishes a three-release chain, audits it with pgquery -chain,
// and hot-swaps a live server through it by SIGHUP: each swap shows in
// /v1/metadata, the debug server's metrics count exactly two, a reload
// with no new release is a 409, and the last release serves pgquery's
// answers.
func testChain(t *testing.T, e *env) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	e.run(t, "salgen", "-n", "4000", "-out", path("sal.csv"))

	// Deltas straight from the microdata: delete a few parent rows, insert
	// rows copied from the CSV (labels in schema order).
	rows := strings.Split(string(readFile(t, path("sal.csv"))), "\n")
	inserts := func(lines []string) string { return "+," + strings.Join(lines, "\n+,") + "\n" }
	writeFile(t, path("d1.csv"), "# release 1 churn\n-,10\n-,20\n-,30\n"+inserts(rows[1:4]))
	writeFile(t, path("d2.csv"), "# release 2 churn\n-,1\n-,2\n"+inserts(rows[4:6]))
	publish := []string{"-in", path("sal.csv"), "-k", "6", "-p", "0.3", "-seed", "5", "-out", os.DevNull}
	e.run(t, "pgpublish", append(publish, "-snapshot", path("r0.pgsnap"))...)
	e.run(t, "pgpublish", append(publish, "-delta", path("d1.csv"), "-base", path("r0.pgsnap"), "-snapshot", path("r1.pgsnap"))...)
	e.run(t, "pgpublish", append(publish, "-delta", path("d1.csv")+","+path("d2.csv"), "-base", path("r1.pgsnap"), "-snapshot", path("r2.pgsnap"))...)
	e.run(t, "pgquery", "-chain", strings.Join([]string{path("r0.pgsnap"), path("r1.pgsnap"), path("r2.pgsnap")}, ","))

	serving := path("serving.pgsnap")
	writeFile(t, serving, string(readFile(t, path("r0.pgsnap"))))
	srv := e.serve(t, "-snapshot", serving, "-debug-addr", "127.0.0.1:0")
	for r := 1; r <= 2; r++ {
		// An atomic replace, then SIGHUP: the daemon picks the next release
		// up without restarting.
		writeFile(t, serving+".tmp", string(readFile(t, path(fmt.Sprintf("r%d.pgsnap", r)))))
		if err := os.Rename(serving+".tmp", serving); err != nil {
			t.Fatal(err)
		}
		srv.signal(t, syscall.SIGHUP)
		srv.poll(t, fmt.Sprintf("release %d live after SIGHUP", r), func() bool {
			var md struct {
				Release *struct {
					Release int `json:"release"`
				} `json:"release"`
			}
			code, _, body := srv.call(t, "GET", "/v1/metadata", "", "")
			return code == http.StatusOK && decode(t, body, &md) && md.Release != nil && md.Release.Release == r
		})
	}
	metrics := string(srv.get(t, srv.debug+"/metrics"))
	for _, line := range []string{"counter serve.reload.swapped 2\n", "gauge   serve.release 2\n"} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("debug /metrics lacks %q:\n%s", strings.TrimSpace(line), metrics)
		}
	}
	if code, _, body := srv.call(t, "POST", "/v1/admin/reload", "", ""); code != http.StatusConflict {
		t.Fatalf("reload with no new release: %d %s, want 409", code, body)
	}
	served := srv.estimate(t, "", ageQuery)
	if off := e.offline(t, append([]string{"-snapshot", path("r2.pgsnap")}, ageQueryFlags...)...); fmt.Sprintf("%.1f", served) != off {
		t.Fatalf("served estimate on release 2 %.1f, pgquery prints %s", served, off)
	}
	srv.stop(t)
}

// testRepub: the multi-release adversary finds no composed-bound violation.
func testRepub(t *testing.T, e *env) {
	out := filepath.Join(t.TempDir(), "repub.json")
	e.run(t, "pgattack", "-exp", "repub", "-n", "3000", "-seed", "5", "-releases", "3",
		"-victims", "8", "-json", out)
	checkNoViolations(t, readFile(t, out))
}

// env locates the built CLIs.
type env struct{ bin string }

// run executes a one-shot CLI, fails the test unless it exits 0, and
// returns its stdout.
func (e *env) run(t *testing.T, name string, args ...string) string {
	t.Helper()
	return e.runEnv(t, nil, name, args...)
}

// runEnv is run with extra environment variables (NAME=value) on top of
// the test's own.
func (e *env) runEnv(t *testing.T, environ []string, name string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	if environ != nil {
		cmd.Env = append(os.Environ(), environ...)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return stdout.String()
}

// offline runs pgquery and returns the estimate it prints.
func (e *env) offline(t *testing.T, args ...string) string {
	t.Helper()
	out := e.run(t, "pgquery", args...)
	est, ok := strings.CutPrefix(strings.TrimSpace(out), "estimated count: ")
	if !ok {
		t.Fatalf("pgquery %s printed no estimate:\n%s", strings.Join(args, " "), out)
	}
	return est
}

// server is a running pgserve: its API base URL, its debug base URL (when
// started with -debug-addr), and its stderr so far.
type server struct {
	cmd        *exec.Cmd
	api, debug string
	done       chan struct{} // closed once the process has exited
	err        error         // Wait's result, set before done closes

	mu     sync.Mutex
	stderr bytes.Buffer
}

var (
	apiLine   = regexp.MustCompile(`(?m)^pgserve: (?:serving|coordinating .*) on (http://\S+)`)
	debugLine = regexp.MustCompile(`(?m)^pgserve: debug server on (http://\S+)`)
)

// serve starts pgserve on 127.0.0.1:0 and returns once the address it
// announces answers /healthz. Cleanup kills it if the test has not
// stopped it.
func (e *env) serve(t *testing.T, args ...string) *server {
	t.Helper()
	s := &server{
		cmd:  exec.Command(filepath.Join(e.bin, "pgserve"), append(args, "-addr", "127.0.0.1:0")...),
		done: make(chan struct{}),
	}
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := pipe.Read(buf)
			s.mu.Lock()
			s.stderr.Write(buf[:n])
			s.mu.Unlock()
			if err != nil {
				break
			}
		}
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	t.Cleanup(func() {
		select {
		case <-s.done:
		default:
			s.cmd.Process.Kill()
			<-s.done
		}
	})

	s.poll(t, "pgserve to announce its address", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if m := apiLine.FindSubmatch(s.stderr.Bytes()); m != nil {
			s.api = string(m[1])
		}
		if m := debugLine.FindSubmatch(s.stderr.Bytes()); m != nil {
			s.debug = string(m[1])
		}
		return s.api != ""
	})
	s.poll(t, "/healthz", func() bool {
		resp, err := client.Get(s.api + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return s
}

// poll retries cond until it holds, failing the test when the deadline
// passes or the server exits first.
func (s *server) poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	end := time.Now().Add(deadline)
	for !cond() {
		select {
		case <-s.done:
			t.Fatalf("pgserve exited (%v) while waiting for %s:\n%s", s.err, what, s.log())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(end) {
			t.Fatalf("waited %v for %s:\n%s", deadline, what, s.log())
		}
	}
}

func (s *server) log() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stderr.String()
}

func (s *server) signal(t *testing.T, sig os.Signal) {
	t.Helper()
	if err := s.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
}

// stop sends SIGTERM and requires a graceful drain: exit status 0.
func (s *server) stop(t *testing.T) {
	t.Helper()
	s.signal(t, syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(deadline):
		t.Fatalf("pgserve still running %v after SIGTERM:\n%s", deadline, s.log())
	}
	if s.err != nil {
		t.Fatalf("pgserve after SIGTERM: %v, want exit 0:\n%s", s.err, s.log())
	}
}

var client = &http.Client{Timeout: deadline}

// call sends one request to the API, with an X-API-Key when key is set,
// and returns the status, headers and body.
func (s *server) call(t *testing.T, method, path, key, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, s.api+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", method, path, err, s.log())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// get fetches a URL and fails the test unless it answers 200.
func (s *server) get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v %s", url, resp.StatusCode, err, b)
	}
	return b
}

// estimate posts a query that must answer 200 and returns its estimate.
func (s *server) estimate(t *testing.T, key, query string) float64 {
	t.Helper()
	code, _, body := s.call(t, "POST", "/v1/query", key, query)
	if code != http.StatusOK {
		t.Fatalf("query (key %q): %d %s", key, code, body)
	}
	var resp struct {
		Estimate float64 `json:"estimate"`
	}
	decode(t, body, &resp)
	return resp.Estimate
}

// checkNoViolations requires a pgattack JSON report to count zero bound
// violations.
func checkNoViolations(t *testing.T, report []byte) {
	t.Helper()
	var rep struct {
		Violations *int `json:"violations"`
	}
	if decode(t, report, &rep); rep.Violations == nil || *rep.Violations != 0 {
		t.Fatalf("attack report does not show 0 violations:\n%s", report)
	}
}

func decode(t *testing.T, data []byte, out any) bool {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return true
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
