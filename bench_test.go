package pgpub

import (
	"math/rand"
	"runtime"
	"testing"

	"pgpub/internal/anatomy"
	"pgpub/internal/attack"
	"pgpub/internal/dataset"
	"pgpub/internal/experiments"
	"pgpub/internal/generalize"
	"pgpub/internal/hierarchy"
	"pgpub/internal/mining"
	"pgpub/internal/minv"
	"pgpub/internal/obs"
	"pgpub/internal/perturb"
	"pgpub/internal/pg"
	"pgpub/internal/privacy"
	"pgpub/internal/query"
	"pgpub/internal/repub"
	"pgpub/internal/sal"
)

// This file holds one benchmark per table and figure of the paper's
// evaluation (Section VII) — the harness that regenerates each artifact —
// plus micro-benchmarks of the pipeline stages. Run everything with
//
//	go test -bench=. -benchmem
//
// and see cmd/pgbench for the human-readable renderings.

// benchSAL memoizes the benchmark microdata across benchmarks.
var benchSAL *dataset.Table

func benchData(b *testing.B, n int) *dataset.Table {
	b.Helper()
	if benchSAL == nil || benchSAL.Len() != n {
		d, err := sal.Generate(n, 42)
		if err != nil {
			b.Fatal(err)
		}
		benchSAL = d
	}
	return benchSAL
}

// BenchmarkTableIIIa regenerates Table III(a): guarantee bounds vs k.
func BenchmarkTableIIIa(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIIIa()
		if err != nil || len(rows) != 5 {
			b.Fatalf("TableIIIa: %v", err)
		}
	}
}

// BenchmarkTableIIIb regenerates Table III(b): guarantee bounds vs p.
func BenchmarkTableIIIb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIIIb()
		if err != nil || len(rows) != 7 {
			b.Fatalf("TableIIIb: %v", err)
		}
	}
}

// BenchmarkFigure2 regenerates one Figure-2 point (m=2, p=0.3, k=6) at
// benchmark scale; cmd/pgbench runs the full sweeps.
func BenchmarkFigure2(b *testing.B) {
	d := benchData(b, 20000)
	classOf, err := sal.Categorizer(2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: rng.Int63()})
		if err != nil {
			b.Fatal(err)
		}
		clf, err := mining.TrainPG(pub, classOf, 2, mining.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if acc := mining.Accuracy(clf.Predict, d, classOf); acc <= 0 || acc >= 1 {
			b.Fatalf("accuracy = %v", acc)
		}
	}
}

// BenchmarkFigure3 regenerates one Figure-3 point (m=3, k=6, p=0.45).
func BenchmarkFigure3(b *testing.B) {
	d := benchData(b, 20000)
	classOf, err := sal.Categorizer(3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.45, Seed: rng.Int63()})
		if err != nil {
			b.Fatal(err)
		}
		clf, err := mining.TrainPG(pub, classOf, 3, mining.Config{})
		if err != nil {
			b.Fatal(err)
		}
		_ = mining.Accuracy(clf.Predict, d, classOf)
	}
}

// BenchmarkBreachValidation regenerates the Extra-E1 Monte-Carlo check at a
// reduced trial count.
func BenchmarkBreachValidation(b *testing.B) {
	d := dataset.Hospital()
	hiers := []*Hierarchy{
		mustInterval(b, d.Schema.QI[0].Size(), 5, 20),
		mustFlat(b, d.Schema.QI[1].Size()),
		mustInterval(b, d.Schema.QI[2].Size(), 5, 20),
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := attack.MonteCarlo(d, dataset.HospitalVoterQI(), hiers, attack.MonteCarloConfig{
			PG:              pg.Config{K: 2, P: 0.3},
			Trials:          50,
			Lambda:          0.1,
			CorruptFraction: 1,
			Seed:            rng.Int63(),
			Workers:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.BreachesRho != 0 || res.BreachesDelta != 0 {
			b.Fatal("breach observed")
		}
	}
}

func mustInterval(b *testing.B, n int, widths ...int) *Hierarchy {
	b.Helper()
	h, err := NewIntervalHierarchy(n, widths...)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

func mustFlat(b *testing.B, n int) *Hierarchy {
	b.Helper()
	h, err := NewFlatHierarchy(n)
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// --- Pipeline micro-benchmarks ---

// BenchmarkPhase1Perturb measures Phase 1 on 20k tuples with one worker.
func BenchmarkPhase1Perturb(b *testing.B) {
	d := benchData(b, 20000)
	pb, err := perturb.NewPerturber(0.3, d.Schema.SensitiveDomain())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pb.TableSharded(d, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase2KD measures serial kd-cell partitioning on 20k tuples.
func BenchmarkPhase2KD(b *testing.B) {
	d := benchData(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generalize.KDPartitionParallel(d, 6, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase2TDS measures top-down specialization on 20k tuples.
func BenchmarkPhase2TDS(b *testing.B) {
	d := benchData(b, 20000)
	hiers := sal.Hierarchies(d.Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generalize.TDS(d, hiers, generalize.TDSConfig{K: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublish measures the full three-phase pipeline on 20k tuples.
func BenchmarkPublish(b *testing.B) {
	d := benchData(b, 20000)
	hiers := sal.Hierarchies(d.Schema)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: rng.Int63()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishParallel is BenchmarkPublish with the pipeline's worker
// pool at GOMAXPROCS. Same seed ⇒ byte-identical output to the sequential
// run (see TestPublishDeterministicAcrossWorkers); compare the two
// benchmarks for the parallel speedup at 20k rows.
func BenchmarkPublishParallel(b *testing.B) {
	d := benchData(b, 20000)
	hiers := sal.Hierarchies(d.Schema)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: rng.Int63(), Workers: runtime.GOMAXPROCS(0)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublishParallelMetricsOn is BenchmarkPublishParallel with a live
// obs.Registry wired into the pipeline. The pair is the instrumentation
// overhead check of docs/OBSERVABILITY.md: instrumentation sits at phase
// boundaries and per-shard flushes — never in per-row loops — so the two
// benchmarks must stay within a couple percent of each other, and
// BenchmarkPublishParallel itself must not regress against its
// pre-instrumentation numbers (the disabled path costs one nil check per
// phase).
func BenchmarkPublishParallelMetricsOn(b *testing.B) {
	d := benchData(b, 20000)
	hiers := sal.Hierarchies(d.Schema)
	rng := rand.New(rand.NewSource(5))
	reg := obs.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: rng.Int63(), Workers: runtime.GOMAXPROCS(0), Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublish100k and BenchmarkPublishParallel100k run the acceptance
// comparison of EXPERIMENTS.md §Parallel pipeline: the full pipeline at
// census-bench scale (100k SAL rows), sequential vs. GOMAXPROCS workers.
func BenchmarkPublish100k(b *testing.B) {
	benchPublishN(b, 100000, 1)
}

func BenchmarkPublishParallel100k(b *testing.B) {
	benchPublishN(b, 100000, runtime.GOMAXPROCS(0))
}

func benchPublishN(b *testing.B, n, workers int) {
	b.Helper()
	d := benchData(b, n)
	hiers := sal.Hierarchies(d.Schema)
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.Publish(d, hiers, pg.Config{K: 6, P: 0.3, Seed: rng.Int63(), Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkAttack measures one corruption-aided linking attack against
// the hospital scenario.
func BenchmarkLinkAttack(b *testing.B) {
	d := dataset.Hospital()
	hiers := []*Hierarchy{
		mustInterval(b, d.Schema.QI[0].Size(), 5, 20),
		mustFlat(b, d.Schema.QI[1].Size()),
		mustInterval(b, d.Schema.QI[2].Size(), 5, 20),
	}
	pub, err := pg.Publish(d, hiers, pg.Config{K: 2, P: 0.3, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	ext, err := attack.NewExternal(d, dataset.HospitalVoterQI())
	if err != nil {
		b.Fatal(err)
	}
	domain := d.Schema.SensitiveDomain()
	q, err := privacy.PredicateOf(domain, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	adv := attack.Adversary{Background: privacy.Uniform(domain), Corrupted: map[int]bool{0: true, 4: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.LinkAttack(pub, ext, 3, adv, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainPG measures mining a 20k-tuple publication.
func BenchmarkTrainPG(b *testing.B) {
	d := benchData(b, 20000)
	classOf, err := sal.Categorizer(2)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.TrainPG(pub, classOf, 2, mining.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSALGenerate measures the synthetic census generator.
func BenchmarkSALGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sal.Generate(20000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryEstimate measures COUNT estimation over a 20k publication
// (Extra E5's core operation).
func BenchmarkQueryEstimate(b *testing.B) {
	d := benchData(b, 20000)
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	qs, err := query.Workload(d.Schema, query.WorkloadConfig{
		Queries: 16, QIFraction: 0.5, RestrictAttrs: 2, SensitiveFraction: 0.4, Rng: rng,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Estimate(pub, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepubCompose measures multi-release posterior composition
// (Extra E6's core operation).
func BenchmarkRepubCompose(b *testing.B) {
	prior := privacy.Uniform(50)
	obs := make([]repub.Observation, 8)
	for t := range obs {
		obs[t] = repub.Observation{Y: int32(t % 50), H: 0.4, P: 0.3}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repub.ComposePosterior(prior, obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase2KDParallel measures the parallel kd partitioner on the
// same input as BenchmarkPhase2KD.
func BenchmarkPhase2KDParallel(b *testing.B) {
	d := benchData(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generalize.KDPartitionParallel(d, 6, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Grouping-engine benchmarks (EXPERIMENTS.md §Grouping engine) ---
//
// The two benchmarks below are the acceptance surface of the incremental
// grouping engine: QI-grouping and TDS at 100k rows. They are the one
// tracked measurement of these stages; compare against the numbers
// recorded in EXPERIMENTS.md §Grouping engine.

// BenchmarkGroupBy measures a full-table QI-grouping of 100k SAL rows under
// mid-level cuts (the finest grouping the engine's packed-key path serves).
func BenchmarkGroupBy(b *testing.B) {
	d := benchData(b, 100000)
	hiers := sal.Hierarchies(d.Schema)
	cuts := make([]*hierarchy.Cut, len(hiers))
	for j, h := range hiers {
		c, err := hierarchy.LevelCut(h, (h.Height()+1)/2)
		if err != nil {
			b.Fatal(err)
		}
		cuts[j] = c
	}
	rec, err := generalize.NewRecoding(d.Schema, hiers, cuts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g := generalize.GroupBy(d, rec); g.Len() == 0 {
			b.Fatal("no groups")
		}
	}
}

// BenchmarkTDS measures top-down specialization on 100k SAL rows (the Phase-2
// workload the incremental refinement engine targets).
func BenchmarkTDS(b *testing.B) {
	d := benchData(b, 100000)
	hiers := sal.Hierarchies(d.Schema)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generalize.TDS(d, hiers, generalize.TDSConfig{K: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnatomize measures the Anatomy baseline on 20k tuples.
func BenchmarkAnatomize(b *testing.B) {
	d := benchData(b, 20000)
	rng := rand.New(rand.NewSource(11))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anatomy.Anatomize(d, 4, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMInvariantRelease measures one m-invariant re-publication round
// over 20k tuples with full survivorship.
func BenchmarkMInvariantRelease(b *testing.B) {
	d := benchData(b, 20000)
	rng := rand.New(rand.NewSource(12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := minv.NewState(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Publish(d, rng); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Publish(d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainNBPG measures the naive-Bayes miner on a 20k publication.
func BenchmarkTrainNBPG(b *testing.B) {
	d := benchData(b, 20000)
	classOf, err := sal.Categorizer(2)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := pg.Publish(d, sal.Hierarchies(d.Schema), pg.Config{K: 6, P: 0.3, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.TrainNBPG(pub, classOf, 2, mining.NBConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
