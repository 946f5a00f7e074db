package iqpaths

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out and micro-benchmarks of the hot paths.
// Figure benches run shortened (but structurally identical) experiments:
// one iteration = one full seeded run; the reported ns/op is the cost of
// regenerating that figure's data, and each bench logs the headline
// numbers so `go test -bench` doubles as a results harness.

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"iqpaths/internal/experiment"
	"iqpaths/internal/pgos"
	"iqpaths/internal/predict"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
	"iqpaths/internal/trace"
)

func benchCfg(alg string, seed int64) experiment.RunConfig {
	return experiment.RunConfig{
		Algorithm:   alg,
		Seed:        seed,
		DurationSec: 30,
		WarmupSec:   55,
	}
}

// runArms runs scn once per arm at benchCfg(arm, seed).
func runArms(b *testing.B, seed int64, scn experiment.Scenario, arms []string) []experiment.Result {
	b.Helper()
	var results []experiment.Result
	for _, arm := range arms {
		res, err := experiment.Run(benchCfg(arm, seed), scn)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
	}
	return results
}

// runFigure runs the registered figure name at p.
func runFigure(b *testing.B, name string, p experiment.Params) []experiment.Table {
	b.Helper()
	figs, err := experiment.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	tables, err := figs[0].Run(p)
	if err != nil {
		b.Fatal(err)
	}
	return tables
}

// logTable logs a figure table's header and rows.
func logTable(b *testing.B, t experiment.Table) {
	b.Helper()
	b.Log(t.Header)
	for _, r := range t.Rows {
		b.Log(r)
	}
}

// BenchmarkFig4Prediction regenerates Figure 4 (mean-predictor error vs
// percentile-prediction failure across measurement windows).
func BenchmarkFig4Prediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiment.Fig4(experiment.Fig4Config{Seed: int64(42 + i), Samples: 30000})
		if i == 0 {
			b.Logf("w=0.1s meanErr=%.4f pctlFail=%.4f | w=1.0s meanErr=%.4f pctlFail=%.4f",
				points[0].MeanErr, points[0].PctlFail, points[9].MeanErr, points[9].PctlFail)
		}
	}
}

// BenchmarkTable1Precedence exercises the Table 1 packet-precedence fast
// path: building the scheduling vectors and dispatching one window of
// packets across two paths under rules 1–3.
func BenchmarkTable1Precedence(b *testing.B) {
	m := pgos.Mapping{
		Packets:    [][]int{{500, 0}, {400, 600}, {0, 0}},
		SinglePath: []int{0, -1, -1},
		Rejected:   []bool{false, false, false},
		Committed:  []float64{30, 20},
		TwSec:      1,
	}
	constraint := []float64{1, 0.9, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vp := pgos.BuildPathVector(m)
		vs := pgos.BuildStreamVectors(m, constraint)
		if len(vp) != 1500 || len(vs[0]) != 900 {
			b.Fatal("vector sizes wrong")
		}
	}
}

// BenchmarkFig9SmartPointer regenerates the Fig. 9 time series, one
// sub-benchmark per algorithm.
func BenchmarkFig9SmartPointer(b *testing.B) {
	for _, alg := range []string{experiment.AlgWFQ, experiment.AlgMSFQ, experiment.AlgPGOS, experiment.AlgOptSched} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(benchCfg(alg, int64(42+i)), experiment.SmartPointer)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("Atom mean=%.2f σ=%.3f | Bond1 mean=%.2f σ=%.3f | Bond2 mean=%.2f",
						res.Streams[0].Summary.Mean, res.Streams[0].Summary.StdDev,
						res.Streams[1].Summary.Mean, res.Streams[1].Summary.StdDev,
						res.Streams[2].Summary.Mean)
				}
			}
		})
	}
}

// BenchmarkFig10CDF regenerates the Fig. 10 throughput CDFs (one PGOS run
// plus the CDF extraction).
func BenchmarkFig10CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(benchCfg(experiment.AlgPGOS, int64(42+i)), experiment.SmartPointer)
		if err != nil {
			b.Fatal(err)
		}
		if t := experiment.RenderCDFs([]experiment.Result{res}); len(t.Rows) != 3 {
			b.Fatal("cdf rows")
		}
	}
}

// BenchmarkFig11Summary regenerates the Fig. 11 per-algorithm summary rows
// (the full four-algorithm suite at reduced duration).
func BenchmarkFig11Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runArms(b, int64(42+i), experiment.SmartPointer, experiment.SmartPointerArms)
		t := experiment.RenderFig11(results, "Atom", "Bond1")
		if len(t.Rows) != 8 {
			b.Fatal("row count")
		}
		if i == 0 {
			logTable(b, experiment.RenderFig11(results, "Bond1"))
		}
	}
}

// BenchmarkFig12GridFTP regenerates the Fig. 12 series per layout.
func BenchmarkFig12GridFTP(b *testing.B) {
	for _, alg := range []string{experiment.AlgBlocked, experiment.AlgPGOS} {
		b.Run(alg, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.Run(benchCfg(alg, int64(42+i)), experiment.GridFTP)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("DT1 mean=%.2f σ=%.3f | DT2 mean=%.2f σ=%.3f | DT3 mean=%.2f",
						res.Streams[0].Summary.Mean, res.Streams[0].Summary.StdDev,
						res.Streams[1].Summary.Mean, res.Streams[1].Summary.StdDev,
						res.Streams[2].Summary.Mean)
				}
			}
		})
	}
}

// BenchmarkFig13GridFTPCDF regenerates the Fig. 13 CDFs (both layouts).
func BenchmarkFig13GridFTPCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := runArms(b, int64(42+i), experiment.GridFTP, experiment.GridFTPArms)
		if t := experiment.RenderCDFs(results); len(t.Rows) != 9 {
			b.Fatal("cdf rows")
		}
	}
}

// BenchmarkAblationMeanPredictor isolates the statistical predictor's
// contribution: PGOS with percentile vs mean predictions.
func BenchmarkAblationMeanPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runFigure(b, "predictor", experiment.Params{Run: benchCfg("", int64(42+i))})
		if i == 0 {
			logTable(b, tables[0])
		}
	}
}

// BenchmarkAblationQuantileSweep sweeps the promised percentile level.
func BenchmarkAblationQuantileSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runFigure(b, "quantiles", experiment.Params{Run: experiment.RunConfig{Seed: int64(42 + i)}})
		if len(tables[0].Rows) != 4 {
			b.Fatal("sweep rows")
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkMonitorWindowAdd measures one bandwidth observation into the
// 500-sample sliding distribution (the per-0.1 s monitoring cost).
func BenchmarkMonitorWindowAdd(b *testing.B) {
	w := stats.NewWindow(500)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Add(xs[i&4095])
	}
}

// BenchmarkPercentileQuery measures one quantile read from the window.
func BenchmarkPercentileQuery(b *testing.B) {
	w := stats.NewWindow(500)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		w.Add(rng.Float64() * 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.Quantile(0.05)
	}
}

// BenchmarkComputeMapping measures one utility-based resource mapping
// (3 streams × 2 paths × 500-sample CDFs) — the window-boundary cost.
func BenchmarkComputeMapping(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(mean float64) *stats.CDF {
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = mean + rng.NormFloat64()*10
		}
		return stats.BuildCDF(xs)
	}
	cdfs := []stats.Distribution{mk(60), mk(40)}
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "a", Kind: stream.Probabilistic, RequiredMbps: 3.249, Probability: 0.95}),
		stream.New(1, stream.Spec{Name: "b", Kind: stream.Probabilistic, RequiredMbps: 22.148, Probability: 0.95}),
		stream.New(2, stream.Spec{Name: "c"}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pgos.ComputeMapping(streams, cdfs, 1)
		if m.Rejected[0] || m.Rejected[1] {
			b.Fatal("unexpected rejection")
		}
	}
}

// BenchmarkSimnetStep measures one emulator tick moving saturating traffic
// across the Fig. 8 testbed (6 links, 2 paths).
func BenchmarkSimnetStep(b *testing.B) {
	tb := BuildTestbed(TestbedConfig{Seed: 1})
	net := tb.Net
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for tb.PathA.QueuedPackets() < 100 {
			tb.PathA.Send(net.NewPacket(0, 12000))
		}
		for tb.PathB.QueuedPackets() < 100 {
			tb.PathB.Send(net.NewPacket(1, 12000))
		}
		net.Step()
		tb.PathA.TakeDelivered()
		tb.PathB.TakeDelivered()
	}
}

// BenchmarkPGOSTick measures one PGOS scheduling tick with backlogged
// streams over the live testbed — the fast-path overhead the paper argues
// is low enough for high-bandwidth links.
func BenchmarkPGOSTick(b *testing.B) {
	tb := BuildTestbed(TestbedConfig{Seed: 1})
	net := tb.Net
	streams := []*stream.Stream{
		stream.New(0, stream.Spec{Name: "a", Kind: stream.Probabilistic, RequiredMbps: 10, Probability: 0.95}),
		stream.New(1, stream.Spec{Name: "b"}),
	}
	monA := NewPathMonitor("A", 500, 100)
	monB := NewPathMonitor("B", 500, 100)
	sampA := NewSampler(tb.PathA, monA)
	sampB := NewSampler(tb.PathB, monB)
	sched := pgos.New(pgos.Config{TwSec: 1, TickSeconds: net.TickSeconds()},
		streams, []PathService{tb.PathA, tb.PathB},
		[]*PathMonitor{monA, monB})
	// Warm the monitors.
	for t := int64(0); t < 200; t++ {
		net.Step()
		sampA.Sample()
		sampB.Sample()
	}
	refill := func() {
		for streams[0].Len() < 2000 {
			streams[0].Push(net.NewPacket(0, 12000))
		}
		for streams[1].Len() < 2000 {
			streams[1].Push(net.NewPacket(1, 12000))
		}
	}
	refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Tick(int64(200 + i))
		net.Step()
		tb.PathA.TakeDelivered()
		tb.PathB.TakeDelivered()
		if i&63 == 0 {
			b.StopTimer()
			refill()
			sampA.Sample()
			sampB.Sample()
			b.StartTimer()
		}
	}
}

// BenchmarkTelemetryOverhead measures the metric hot paths the schedulers
// and transport hit per packet/tick. All of them must be allocation-free
// and cost a handful of nanoseconds, or instrumentation would distort the
// systems it observes (the strict zero-alloc assertion lives in the
// telemetry package's tests).
func BenchmarkTelemetryOverhead(b *testing.B) {
	reg := telemetry.NewRegistry()
	b.Run("CounterInc", func(b *testing.B) {
		c := reg.Counter("iqpaths_bench_counter_total", "bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("GaugeSet", func(b *testing.B) {
		g := reg.Gauge("iqpaths_bench_gauge", "bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		h := reg.Histogram("iqpaths_bench_hist", "bench")
		rng := rand.New(rand.NewSource(1))
		xs := make([]float64, 4096)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(xs[i&4095])
		}
	})
}

// BenchmarkTraceGenerator measures one synthetic NLANR sample.
func BenchmarkTraceGenerator(b *testing.B) {
	g := trace.NewNLANRLike(trace.DefaultNLANR(), rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

// BenchmarkEvaluatePredictors measures the Fig. 4 scoring loop per sample.
func BenchmarkEvaluatePredictors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	series := trace.AvailableBandwidth(100, trace.Take(trace.NewNLANRLike(trace.DefaultNLANR(), rng), 5000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = predict.Evaluate(series, predict.EvalConfig{})
	}
}

// BenchmarkPacketAllocation measures emulator packet churn.
func BenchmarkPacketAllocation(b *testing.B) {
	net := simnet.New(0.01, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packetSink = net.NewPacket(0, 12000)
	}
}

// packetSink defeats dead-code elimination in BenchmarkPacketAllocation.
var packetSink *simnet.Packet

// BenchmarkVideoPlayback regenerates the layered-video playback-quality
// comparison (the multimedia application of the companion tech report).
func BenchmarkVideoPlayback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runFigure(b, "video", experiment.Params{Run: benchCfg("", int64(42+i))})
		if i == 0 {
			logTable(b, tables[0])
		}
	}
}

// BenchmarkMatrix runs one scenario-matrix cell per sub-benchmark over a
// reduced grid (two arms × two workloads × two bands, one seed per
// iteration). Besides ns/op it reports each cell's aggregate goodput
// (cell-Mbps), violated-window fraction (violated-frac) and delay jitter
// (jitter-ms), so one run shows how each arm's guarantee quality moves
// across bands.
func BenchmarkMatrix(b *testing.B) {
	bandByName := map[string]experiment.Band{}
	for _, band := range experiment.DefaultBands() {
		bandByName[band.Name] = band
	}
	for _, arm := range []string{experiment.AlgMSFQ, experiment.AlgPGOS} {
		for _, wl := range []string{"cbr", "gridftp"} {
			for _, bandName := range []string{"lan", "congested"} {
				name := "arm=" + arm + "/workload=" + wl + "/band=" + bandName
				b.Run(name, func(b *testing.B) {
					var last experiment.Table
					for i := 0; i < b.N; i++ {
						m := experiment.DefaultMatrix()
						m.Arms = []string{arm}
						m.Workloads = []string{wl}
						m.Bands = []experiment.Band{bandByName[bandName]}
						m.Seeds = []int64{int64(42 + i)}
						last = runFigure(b, "matrix", experiment.Params{Matrix: m})[0]
					}
					for _, m := range []struct{ col, unit string }{
						{"agg_mbps", "cell-Mbps"}, {"violated_frac", "violated-frac"}, {"delay_jitter_ms", "jitter-ms"},
					} {
						b.ReportMetric(cell(b, last, 0, m.col), m.unit)
					}
				})
			}
		}
	}
}

// cell parses the numeric cell of the named column in row i of a figure
// table, as the figure rendered it.
func cell(b *testing.B, t experiment.Table, i int, col string) float64 {
	b.Helper()
	j := slices.Index(t.Header, col)
	if j < 0 {
		b.Fatalf("%s has no column %q", t.Title, col)
	}
	v, err := strconv.ParseFloat(t.Rows[i][j], 64)
	if err != nil {
		b.Fatalf("%s row %d: %s = %q is not a number", t.Title, i, col, t.Rows[i][j])
	}
	return v
}

// BenchmarkAblationPathsSweep sweeps the concurrent-path count.
func BenchmarkAblationPathsSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := runFigure(b, "paths", experiment.Params{Run: experiment.RunConfig{
			Seed: int64(42 + i), DurationSec: 20, WarmupSec: 55,
		}})
		if len(tables[0].Rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkBufferBound measures the buffer-sizing query.
func BenchmarkBufferBound(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	c := stats.BuildCDF(xs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pgos.BufferBound(c, 50, 1, 0.95)
	}
}
