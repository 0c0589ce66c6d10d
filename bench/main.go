// Command bench is the repository benchmark. It publishes and serves PG
// releases through the repository's own packages, over loopback HTTP for the
// serving workloads, checks every answer, and reports end-to-end metrics or,
// with --trace 1, a per-layer breakdown. Run it from the repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// Without --workload it runs every workload, each in its own subprocess.
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. bench/README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgpub/internal/obs"
	"pgpub/internal/pg"
)

// defaultSeed is the seed the pinned snapshot CRCs were taken at.
const defaultSeed = 1

var workloads = []string{"publish", "serve-hot", "serve-cold", "serve-coord"}

// metricDef is one reported metric. The two tables below must match the
// end_to_end and per_layer lists of BENCHMARK.json (bench_test.go checks).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	// Publish side, per release of the workload (publish: one release set).
	{"perturb.table_ms", "ms"},
	{"generalize.ms", "ms"},
	{"sampling.stratified_ms", "ms"},
	{"pg.publish_ms", "ms"},
	{"pg.unattributed_ms", "ms"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.open_ms", "ms"},
	{"snapshot.verify_ms", "ms"},
	{"query.index_build_ms", "ms"},
	{"generalize.groups", "count"},
	{"snapshot.bytes", "bytes"},
	// Request side: critical-path time per traced request, by layer.
	{"gen.wait_us", "us"},
	{"http.wire_us", "us"},
	{"handler.self_us", "us"},
	{"query.index_us", "us"},
	{"client.codec_us", "us"},
	{"unattributed_us", "us"},
	{"trace.mean_us", "us"},
	{"trace.overhead_pct", "%"},
	{"coord.fanout_share", "ratio"},
	{"lat.p99_ms", "ms"},
	{"gen.late_p99_us", "us"},
	{"gen.backlog_max", "count"},
	{"gen.sent", "count"},
	{"load.closed_qps", "1/s"},
	// Server counters over the whole run.
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"serve.reloads", "count"},
	{"coord.hedges_fired", "count"},
	{"coord.hedge_won_ratio", "ratio"},
	{"dp.eps_spent", "eps"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one run's command line.
type options struct {
	cfg      config
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // result, trace and temporary-snapshot directory
}

func main() {
	workload := flag.String("workload", "", "workload: publish, serve-hot, serve-cold or serve-coord; empty runs all four, each in its own subprocess")
	seed := flag.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 traces the run and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for result files, trace files and temporary snapshots")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [--workload W] [--seed N] [--seconds S>=1] [--trace 0|1]")
		os.Exit(2)
	}
	o := options{
		cfg: fullConfig(), workload: *workload, seed: *seed,
		window: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out,
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var err error
	if o.workload == "" {
		err = runAll(o)
	} else {
		err = runSingle(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runSingle runs one workload in this process and prints its result. A run
// that hangs is stopped without a result line well inside the 180 s a run
// may take.
func runSingle(o options) error {
	watchdog := time.AfterFunc(o.window+150*time.Second, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish in %v; giving up\n", o.workload, o.window+150*time.Second)
		os.Exit(3)
	})
	defer watchdog.Stop()
	rep, detail, err := runWorkload(o)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, o.workload, rep)
	name := "result-" + o.workload
	if o.trace {
		name += "-trace"
	}
	if err := writeJSON(filepath.Join(o.out, name+".json"), map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace, "result": rep, "detail": detail,
	}); err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload in its own subprocess, waits for each, and
// combines their results into bench/out/result.json and one summary line
// whose metric names carry the workload as a prefix.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := report{Correct: true, Metrics: map[string]metric{}}
	all := map[string]report{}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(int(o.window/time.Second)), "--trace", strconv.Itoa(boolInt(o.trace)),
			"--out", o.out)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("workload %s: result line: %w", w, err)
		}
		all[w] = rep
		sum.Correct = sum.Correct && rep.Correct
		sum.Attempted += rep.Attempted
		sum.Failed += rep.Failed
		for name, m := range rep.Metrics {
			sum.Metrics[w+"/"+name] = m
		}
	}
	if err := writeJSON(filepath.Join(o.out, "result.json"), map[string]any{
		"seed": o.seed, "trace": o.trace, "workloads": all,
	}); err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runWorkload runs one workload and assembles its report: the end-to-end
// metrics, or the per-layer ones when tracing. detail carries what the
// result line has no room for (per-algorithm publish times, sample counts).
func runWorkload(o options) (*report, map[string]any, error) {
	dir, err := os.MkdirTemp(o.out, "work-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{options: o, dir: dir, reg: obs.NewRegistry(), values: map[string]float64{}, detail: map[string]any{}}
	if o.trace {
		r.tr = newTracer()
	}
	prime(o.cfg.prime)
	switch o.workload {
	case "publish":
		err = runPublish(r)
	case "serve-hot":
		err = runServeHot(r)
	case "serve-cold":
		err = runServeCold(r)
	case "serve-coord":
		err = runServeCoord(r)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	} else {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, nil, err
		}
		r.set("rss_peak_mb", rss)
	}
	rep := &report{
		Correct:   r.wrong.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return nil, nil, fmt.Errorf("%s: no operation was attempted", o.workload)
	}
	r.mu.Lock()
	if len(r.problems) > 0 {
		r.detail["problems"] = r.problems
	}
	r.mu.Unlock()
	return rep, r.detail, nil
}

// run is the state of one workload run: options, counters, and the values
// measured so far.
type run struct {
	options
	dir string
	tr  *tracer       // nil unless tracing
	reg *obs.Registry // shared by every server of the run

	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64 // failed because an answer or a check was wrong
	sent      atomic.Int64 // queries the generator sent
	traceSeq  atomic.Uint64

	mu       sync.Mutex
	problems []string // the first few failures, for the result file
	values   map[string]float64
	detail   map[string]any
}

// fail counts one failed operation; wrong marks it as an incorrect output
// rather than a transport or server error.
func (r *run) fail(wrong bool, format string, args ...any) {
	r.failed.Add(1)
	if wrong {
		r.wrong.Add(1)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 10 {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintln(os.Stderr, "bench: FAIL:", msg)
	}
}

func (r *run) set(name string, v float64) {
	r.mu.Lock()
	r.values[name] = v
	r.mu.Unlock()
}

// pgConfig is the publication configuration every workload publishes with.
func (r *run) pgConfig(alg pg.Algorithm) pg.Config {
	return pg.Config{K: r.cfg.k, P: r.cfg.p, Algorithm: alg, Seed: r.seed}
}

func (r *run) note(key string, v any) {
	r.mu.Lock()
	r.detail[key] = v
	r.mu.Unlock()
}

// timeSetups runs setup at least cfg.setups times and until the repetitions
// have taken cfg.setupFor, and records the median as setup_s: a set-up of
// 40 ms is repeated about fifty times, one of 1.5 s five times. The
// repetitions of one run agree within a few percent; the spread of setup_s
// is between runs, with the host's state. Each call must leave a complete
// deployment, in the same files as the one before it; the last one is
// measured.
func (r *run) timeSetups(setup func() error) error {
	var times []float64
	var total time.Duration
	for i := 0; i < r.cfg.setups || total < r.cfg.setupFor; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	r.set("setup_s", median(times))
	r.note("setup_s_all", times)
	return nil
}

// prime keeps every processor busy for d before anything is timed. On a
// virtual machine whose cores have idled for a few seconds, the first second
// or so of parallel work runs at about half speed while the host brings the
// cores back; without priming, that second lands in whichever phase comes
// first.
func prime(d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(end) {
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			sink.Add(x)
		}()
	}
	wg.Wait()
}

// sink keeps prime's arithmetic from being optimized away.
var sink atomic.Uint64

// median is the middle of a set of repetitions — set-ups, one-second
// slices, release sets — (the mean of the two middle values for an even
// count). Use percentile for latency samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// errTooFewSamples reports a percentile the sample cannot support.
var errTooFewSamples = errors.New("fewer than 10 samples beyond the percentile")

// percentile returns the q-quantile (nearest rank) of sorted, refusing one
// with fewer than ten samples beyond it: a tail read from a handful of
// samples is noise.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q < 0 || q > 1 {
		return 0, errTooFewSamples
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < 10 {
		return 0, fmt.Errorf("%w: p%g of %d samples", errTooFewSamples, q*100, n)
	}
	return sorted[idx], nil
}

// resetPeakRSS returns freed memory to the system and restarts the peak
// resident set count (VmHWM) at the resident set that remains, so
// rss_peak_mb covers the measured window — not the repeated set-ups before
// it, nor whatever of their garbage the runtime had yet to release.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// printMetrics prints every reported metric by name with its unit.
func printMetrics(w io.Writer, workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, rep.Correct, rep.Attempted, rep.Failed)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-24s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
