// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md experiment index E1–E13). Each target
// regenerates its table rows / figure series on a benchmark-sized dataset
// and reports the information-loss values as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the shape of every published number. The paper-scale runs
// (ADT n=5000 etc.) are produced by `go run ./cmd/kanonbench -full`.
package kanon

import (
	"context"
	"fmt"
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/experiment"
	"kanon/internal/loss"
	"kanon/internal/obs"
)

// benchConfig sizes the datasets so every Table-I block completes in
// benchmark time while preserving the paper's orderings.
func benchConfig() experiment.Config {
	return experiment.Config{NART: 240, NADT: 240, NCMC: 240, Seed: 42, Ks: []int{5, 10, 15, 20}}
}

// benchmarkBlock regenerates one dataset × measure block of Table I and
// reports its three rows (best k-anon, forest, best (k,k)) at every k as
// benchmark metrics.
func benchmarkBlock(b *testing.B, dataset string, m experiment.MeasureKind) {
	cfg := benchConfig()
	var blk *experiment.Block
	for i := 0; i < b.N; i++ {
		var err error
		blk, err = cfg.RunBlock(dataset, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, k := range blk.SortedKs() {
		b.ReportMetric(blk.BestKAnon.Losses[k], fmt.Sprintf("bestk@k%d", k))
		b.ReportMetric(blk.Forest.Losses[k], fmt.Sprintf("forest@k%d", k))
		b.ReportMetric(blk.BestKK.Losses[k], fmt.Sprintf("kk@k%d", k))
	}
}

// Table I (E1–E6): the six dataset × measure blocks.

func BenchmarkTableI_ART_EM(b *testing.B) { benchmarkBlock(b, "ART", experiment.EM) }
func BenchmarkTableI_ADT_EM(b *testing.B) { benchmarkBlock(b, "ADT", experiment.EM) }
func BenchmarkTableI_CMC_EM(b *testing.B) { benchmarkBlock(b, "CMC", experiment.EM) }
func BenchmarkTableI_ART_LM(b *testing.B) { benchmarkBlock(b, "ART", experiment.LM) }
func BenchmarkTableI_ADT_LM(b *testing.B) { benchmarkBlock(b, "ADT", experiment.LM) }
func BenchmarkTableI_CMC_LM(b *testing.B) { benchmarkBlock(b, "CMC", experiment.LM) }

// Figure 2 (E7) and Figure 3 (E8): the ADT curves under EM and LM; the
// series values double as the figure points.

func BenchmarkFig2_ADT_Entropy(b *testing.B) { benchmarkBlock(b, "ADT", experiment.EM) }
func BenchmarkFig3_ADT_LM(b *testing.B)      { benchmarkBlock(b, "ADT", experiment.LM) }

// BenchmarkAblationDistances (E9) compares the four distance functions of
// Section V-A.2 head-to-head on the basic agglomerative algorithm.
func BenchmarkAblationDistances(b *testing.B) {
	ds := datagen.ART(300, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	results := make(map[string]float64)
	for i := 0; i < b.N; i++ {
		for _, d := range cluster.PaperDistances() {
			g, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k, Distance: d})
			if err != nil {
				b.Fatal(err)
			}
			results[d.Name()] = loss.TableLoss(em, g)
		}
	}
	for name, l := range results {
		b.ReportMetric(l, name)
	}
}

// BenchmarkAblationK1 (E10) compares the Algorithm 3+5 and Algorithm 4+5
// couplings.
func BenchmarkAblationK1(b *testing.B) {
	ds := datagen.Adult(300, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	var lNearest, lExpand float64
	for i := 0; i < b.N; i++ {
		gn, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByNearest, nil, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		lNearest = loss.TableLoss(em, gn)
		ge, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		lExpand = loss.TableLoss(em, ge)
	}
	b.ReportMetric(lNearest, "nearest")
	b.ReportMetric(lExpand, "expand")
}

// BenchmarkAblationModified (E11) compares the basic and modified
// agglomerative algorithms for each distance.
func BenchmarkAblationModified(b *testing.B) {
	ds := datagen.CMC(300, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	results := make(map[string]float64)
	for i := 0; i < b.N; i++ {
		for _, d := range []cluster.Distance{cluster.D1{}, cluster.D3{}} {
			for _, mod := range []bool{false, true} {
				g, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k, Distance: d, Modified: mod})
				if err != nil {
					b.Fatal(err)
				}
				name := d.Name() + "-basic"
				if mod {
					name = d.Name() + "-mod"
				}
				results[name] = loss.TableLoss(em, g)
			}
		}
	}
	for name, l := range results {
		b.ReportMetric(l, name)
	}
}

// BenchmarkGlobalUpgrade (E13) measures the Algorithm 6 upgrade: its cost
// in time and the extra information loss over the (k,k) input.
func BenchmarkGlobalUpgrade(b *testing.B) {
	ds := datagen.ART(300, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	gkk, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	kkLoss := loss.TableLoss(em, gkk)
	var globalLoss float64
	var deficient int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, stats, err := core.MakeGlobal1KCtx(nil, s, ds.Table, gkk.Clone(), k)
		if err != nil {
			b.Fatal(err)
		}
		globalLoss = loss.TableLoss(em, g)
		deficient = stats.DeficientRecords
	}
	b.ReportMetric(kkLoss, "kk-loss")
	b.ReportMetric(globalLoss, "global-loss")
	b.ReportMetric(float64(deficient), "deficient")
}

// BenchmarkScalability (E19) compares the plain agglomerative algorithm
// with the partitioned variant (the Section VII "more scalable algorithms"
// item) at a size where the quadratic engine starts to hurt, reporting
// both losses so the utility penalty is visible next to the speedup.
func BenchmarkScalability(b *testing.B) {
	ds := datagen.Adult(3000, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	b.Run("agglomerative", func(b *testing.B) {
		var l float64
		for i := 0; i < b.N; i++ {
			g, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k})
			if err != nil {
				b.Fatal(err)
			}
			l = loss.TableLoss(em, g)
		}
		b.ReportMetric(l, "infoloss")
	})
	b.Run("partitioned", func(b *testing.B) {
		var l float64
		for i := 0; i < b.N; i++ {
			g, _, _, err := core.KAnonymizePartitionedReportCtx(nil, s, ds.Table, core.PartitionedOptions{K: k, MaxChunk: 400})
			if err != nil {
				b.Fatal(err)
			}
			l = loss.TableLoss(em, g)
		}
		b.ReportMetric(l, "infoloss")
	})
}

// BenchmarkObserverOverhead quantifies the observability tax on the
// hottest pipeline, the agglomerative engine: "disabled" is the nil
// *obs.Run fast path every un-observed run takes (guarded to zero
// allocations by the tests in internal/obs), "metrics" tees the full
// event stream into an aggregator. The disabled variant must track the
// pre-instrumentation cost within noise (<2%); compare the two variants
// to see the worst-case price of observing.
func BenchmarkObserverOverhead(b *testing.B) {
	ds := datagen.Adult(500, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := obs.With(context.Background(), obs.NewMetrics())
			if _, err := core.KAnonymizeCtx(ctx, s, ds.Table, cluster.AggloOptions{K: k}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelines times each anonymization pipeline end to end at a
// fixed size, the throughput view of Table I's algorithms.
func BenchmarkPipelines(b *testing.B) {
	ds := datagen.Adult(500, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	const k = 10
	b.Run("agglomerative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ForestCtx(nil, s, ds.Table, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kk-expand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := core.MakeGlobal1KCtx(nil, s, ds.Table, g, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}
