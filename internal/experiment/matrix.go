package experiment

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
	"iqpaths/internal/trace"
)

// matrixPaths is the overlay width every matrix cell runs with — two
// parallel router chains, matching the Fig. 8 topology the schedulers were
// calibrated on.
const matrixPaths = 2

// Band is one scenario band of the matrix: the ranges a concrete scenario
// is drawn from, per seed. A band names a network regime ("lan", "wan",
// "lossy", …) without fixing its parameters; every (band, seed) pair draws
// deterministic group sizes and per-path link characteristics from these
// ranges, so one band covers a neighborhood of conditions instead of a
// single point.
type Band struct {
	Name string
	// Clients/Providers/Bystanders are inclusive [min,max] group-size
	// ranges: clients hold guaranteed streams, providers best-effort
	// streams, bystanders inject cross traffic only.
	Clients, Providers, Bystanders [2]int
	// LatencyMs is the per-path one-way bottleneck propagation delay range.
	LatencyMs [2]float64
	// BandwidthMbps is the per-path bottleneck capacity range.
	BandwidthMbps [2]float64
	// JitterMbps is the sigma range of the Gaussian cross-traffic noise on
	// each bottleneck — the source of available-bandwidth (and hence
	// delivery) jitter.
	JitterMbps [2]float64
	// LossPct is the per-path bottleneck loss-probability range in percent.
	LossPct [2]float64
	// BystanderMbps is the per-bystander on-rate range for the bursty
	// Pareto on/off load each bystander adds to its path.
	BystanderMbps [2]float64
}

// PathDraw is one path's drawn link characteristics.
type PathDraw struct {
	LatencyMs     float64
	BandwidthMbps float64
	JitterMbps    float64
	LossPct       float64
	// Bystanders is how many bystander cross sources landed on this path.
	Bystanders int
}

// BandDraw is one band's concrete conditions for one seed: the input of
// the matrix topology (BandDraw.build) and of the matrix workloads.
type BandDraw struct {
	Band string
	Seed int64
	// Clients/Providers/Bystanders are the drawn group sizes.
	Clients, Providers, Bystanders int
	// BystanderMbps is the drawn per-bystander on-rate.
	BystanderMbps float64
	// Paths are the per-path draws, matrixPaths long.
	Paths []PathDraw
}

// Draw deterministically instantiates the band under seed. The band's name
// is folded into the seed, so each (band, seed) pair draws independent,
// stable conditions.
func (b Band) Draw(seed int64) BandDraw {
	h := fnv.New64a()
	h.Write([]byte(b.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()&0x7fffffffffffffff)))
	intIn := func(r [2]int) int {
		if r[1] <= r[0] {
			return r[0]
		}
		return r[0] + rng.Intn(r[1]-r[0]+1)
	}
	fIn := func(r [2]float64) float64 {
		if r[1] <= r[0] {
			return r[0]
		}
		return r[0] + rng.Float64()*(r[1]-r[0])
	}
	d := BandDraw{
		Band:          b.Name,
		Seed:          seed,
		Clients:       intIn(b.Clients),
		Providers:     intIn(b.Providers),
		Bystanders:    intIn(b.Bystanders),
		BystanderMbps: fIn(b.BystanderMbps),
	}
	d.Clients = max(1, d.Clients)
	for j := 0; j < matrixPaths; j++ {
		d.Paths = append(d.Paths, PathDraw{
			LatencyMs:     fIn(b.LatencyMs),
			BandwidthMbps: fIn(b.BandwidthMbps),
			JitterMbps:    fIn(b.JitterMbps),
			LossPct:       fIn(b.LossPct),
		})
	}
	// Bystanders land round-robin across paths.
	for i := 0; i < d.Bystanders; i++ {
		d.Paths[i%matrixPaths].Bystanders++
	}
	return d
}

// build is the matrix topology: a matrixPaths-wide testbed realizing the
// draw under seed (the draw's own seed in every matrix cell). Each path is
// an ingress–bottleneck–egress chain, the bottleneck carrying the drawn
// capacity, latency, loss, Gaussian jitter, and the path's share of
// bystander cross sources.
func (d BandDraw) build(seed int64) (*simnet.Network, []*simnet.Path) {
	const tickSec = 0.01
	net := simnet.New(tickSec, rand.New(rand.NewSource(seed)))
	paths := make([]*simnet.Path, len(d.Paths))
	for j, pd := range d.Paths {
		crossRng := rand.New(rand.NewSource(seed + int64(j)*101 + 1))
		parts := []trace.Generator{
			trace.NewGaussian(pd.JitterMbps, pd.JitterMbps/2, crossRng),
		}
		for i := 0; i < pd.Bystanders; i++ {
			parts = append(parts, trace.NewParetoOnOff(
				d.BystanderMbps, 1.5, 200, 600,
				rand.New(rand.NewSource(seed+int64(j)*101+int64(i)*17+2))))
		}
		mk := func(name string, capMbps float64, delay int, loss float64, cross trace.Generator) *simnet.Link {
			return net.AddLink(simnet.LinkConfig{Name: name, CapacityMbps: capMbps, DelayTicks: delay,
				QueueLimit: 1000, LossProb: loss, Cross: cross})
		}
		// Argument order is link order: ingress, bottleneck, egress.
		paths[j] = net.AddPath(fmt.Sprintf("Path%d", j),
			mk(fmt.Sprintf("S:R%d", j), 100, 1, 0, nil),
			mk(fmt.Sprintf("R%d:R%d'", j, j), pd.BandwidthMbps, max(1, int(pd.LatencyMs/1000/tickSec+0.5)),
				pd.LossPct/100, trace.NewSum(parts...)),
			mk(fmt.Sprintf("R%d':C", j), 100, 1, 0, nil))
	}
	return net, paths
}

// matrixClientMbps / matrixProviderMbps size the per-member offered loads.
// Client demand is deliberately modest per member so small groups fit any
// band while large groups stress the tight ones.
const (
	matrixClientMbps   = 4
	matrixProviderMbps = 8
)

// matrixLoad is one matrix workload: how its guaranteed clients (stream
// IDs [0, Clients)) and best-effort providers (the IDs after them) are
// named, weighted and fed.
type matrixLoad struct {
	client, provider             string // stream name prefixes
	clientWeight, providerWeight float64
	clientFeed, providerFeed     func(net *simnet.Network, st *stream.Stream) interface{ Tick() }
}

func backlogFeed(net *simnet.Network, st *stream.Stream) interface{ Tick() } {
	return stream.NewBacklogSource(net, st, 1000)
}

func rateFeed(mbps float64) func(*simnet.Network, *stream.Stream) interface{ Tick() } {
	return func(net *simnet.Network, st *stream.Stream) interface{ Tick() } {
		return stream.NewRateSource(net, st, mbps)
	}
}

var matrixWorkloads = map[string]matrixLoad{
	// smartpointer: frame-structured interactive clients (25 fps with
	// per-frame deadlines) against backlogged providers.
	"smartpointer": {"C", "P", 0, 40, func(net *simnet.Network, st *stream.Stream) interface{ Tick() } {
		return stream.NewFrameSource(net, st, 25, matrixClientMbps*1e6/8/25)
	}, backlogFeed},
	// gridftp: guaranteed bulk movers (always backlogged) against
	// best-effort bulk providers — the striped-transfer shape.
	"gridftp": {"DT", "BG", matrixClientMbps, 20, backlogFeed, backlogFeed},
	// cbr: constant-bit-rate guaranteed clients (finite offered load)
	// against rate-limited best-effort providers. Clients offer 10 %
	// headroom over the guarantee: offering exactly the quota sits on a
	// quantization knife-edge where every window boundary can fall one
	// packet short.
	"cbr": {"C", "P", 0, 30, rateFeed(matrixClientMbps * 1.1), rateFeed(matrixProviderMbps)},
}

// sources builds the workload's streams and sources on net for the draw.
func (l matrixLoad) sources(net *simnet.Network, d BandDraw) sources {
	var w sources
	for i := 0; i < d.Clients+d.Providers; i++ {
		spec, feed := stream.Spec{Name: fmt.Sprintf("%s%d", l.provider, i-d.Clients), Weight: l.providerWeight}, l.providerFeed
		if i < d.Clients {
			spec = stream.Spec{
				Name: fmt.Sprintf("%s%d", l.client, i), Kind: stream.Probabilistic,
				RequiredMbps: matrixClientMbps, Probability: 0.95, Weight: l.clientWeight,
			}
			feed = l.clientFeed
		}
		st := stream.New(i, spec)
		w.add(st, feed(net, st))
	}
	return w
}

// MatrixWorkloadNames returns the sorted workload names the matrix accepts.
func MatrixWorkloadNames() []string {
	names := make([]string, 0, len(matrixWorkloads))
	// maporder: the names are collected, then sorted.
	for n := range matrixWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Matrix declares a full scenario grid: every scheduler arm crossed with
// every workload, band, and seed.
type Matrix struct {
	// Arms are registry names (sched.Registered()).
	Arms []string
	// Workloads are matrix workload names (MatrixWorkloadNames()).
	Workloads []string
	// Bands are the scenario bands.
	Bands []Band
	// Seeds drive the per-band draws and the emulator RNG.
	Seeds []int64
}

// DefaultBands is the stock band set: a quiet LAN, a long-haul WAN, a
// lossy path pair, and a congested regime where guaranteed demand brushes
// capacity.
func DefaultBands() []Band {
	return []Band{
		{Name: "lan",
			Clients: [2]int{2, 3}, Providers: [2]int{1, 2}, Bystanders: [2]int{0, 2},
			LatencyMs: [2]float64{1, 5}, BandwidthMbps: [2]float64{80, 100},
			JitterMbps: [2]float64{2, 6}, LossPct: [2]float64{0, 0}, BystanderMbps: [2]float64{1, 3}},
		{Name: "wan",
			Clients: [2]int{2, 4}, Providers: [2]int{1, 3}, Bystanders: [2]int{2, 6},
			LatencyMs: [2]float64{20, 60}, BandwidthMbps: [2]float64{40, 80},
			JitterMbps: [2]float64{5, 15}, LossPct: [2]float64{0, 0.2}, BystanderMbps: [2]float64{2, 6}},
		{Name: "lossy",
			Clients: [2]int{1, 3}, Providers: [2]int{1, 2}, Bystanders: [2]int{1, 4},
			LatencyMs: [2]float64{10, 30}, BandwidthMbps: [2]float64{30, 60},
			JitterMbps: [2]float64{8, 20}, LossPct: [2]float64{0.5, 2}, BystanderMbps: [2]float64{2, 5}},
		{Name: "congested",
			Clients: [2]int{3, 5}, Providers: [2]int{2, 4}, Bystanders: [2]int{4, 10},
			LatencyMs: [2]float64{5, 15}, BandwidthMbps: [2]float64{25, 45},
			JitterMbps: [2]float64{10, 25}, LossPct: [2]float64{0, 0.5}, BystanderMbps: [2]float64{3, 8}},
	}
}

// DefaultMatrix is the stock grid: four scheduler arms, three workloads,
// four bands.
func DefaultMatrix() Matrix {
	return Matrix{
		Arms:      []string{sched.NameWFQ, sched.NameMSFQ, sched.NamePGOS, sched.NameBackpressure},
		Workloads: MatrixWorkloadNames(),
		Bands:     DefaultBands(),
		Seeds:     []int64{1, 7, 42},
	}
}

// Every matrix cell runs matrixWarmupSec, which outlasts the monitors'
// 100-sample (10 s) warm threshold, before matrixDurationSec measured.
const (
	matrixWarmupSec   = 12
	matrixDurationSec = 10
)

// matrixCells is the matrix figure's axis: every cell of p.Matrix in
// arm-major/workload/band/seed order. Unknown arms error through the
// scheduler registry with the registered list; unknown workloads error
// with the known workload names.
func matrixCells(p Params) ([]point, error) {
	m := p.Matrix
	if len(m.Arms) == 0 || len(m.Workloads) == 0 || len(m.Bands) == 0 || len(m.Seeds) == 0 {
		return nil, fmt.Errorf("experiment: matrix needs at least one arm, workload, band, and seed")
	}
	var pts []point
	for _, arm := range m.Arms {
		for _, wl := range m.Workloads {
			if _, ok := matrixWorkloads[wl]; !ok {
				return nil, fmt.Errorf("experiment: unknown matrix workload %q (known: %s)",
					wl, strings.Join(MatrixWorkloadNames(), ", "))
			}
			for _, band := range m.Bands {
				for _, seed := range m.Seeds {
					draw := band.Draw(seed)
					pts = append(pts, func(c *RunConfig, s *Scenario) {
						*c = RunConfig{Algorithm: arm, Seed: seed, WarmupSec: matrixWarmupSec, DurationSec: matrixDurationSec}
						*s = Scenario{Topology: draw.build, Workload: Workload{PaceLimit: sched.DefaultPaceLimit,
							New: func(h *Harness, c RunConfig) workload { return newMatrixCell(h, c, wl, draw) }}}
					})
				}
			}
		}
	}
	return pts, nil
}

// matrixCell is one cell's workload: the named matrix workload on the band
// draw, measuring the aggregate goodput and sampling client one-way delays
// after warmup.
type matrixCell struct {
	sources
	cell     cellOutcome
	aggBits  float64
	delaysMs []float64
}

// cellOutcome is what a matrix cell measured: the aggregate delivered
// goodput over the measured window and the standard deviation of the
// sampled client delays.
type cellOutcome struct {
	workload          string
	draw              BandDraw
	aggMbps, jitterMs float64
}

func (w *matrixCell) measured() any {
	w.cell.aggMbps, w.cell.jitterMs = w.aggBits/1e6/matrixDurationSec, stats.Summarize(w.delaysMs).StdDev
	return w.cell
}

func newMatrixCell(h *Harness, cfg RunConfig, name string, draw BandDraw) *matrixCell {
	w := &matrixCell{sources: matrixWorkloads[name].sources(h.Net, draw), cell: cellOutcome{workload: name, draw: draw}}
	tickSec := h.Net.TickSeconds()
	warmupTicks := int64(cfg.WarmupSec / tickSec)
	h.OnDeliver = func(_ int, pkt *simnet.Packet, t int64) {
		if t < warmupTicks {
			return
		}
		w.aggBits += pkt.Bits
		// Sparse one-way-delay samples on client streams feed the
		// delay-jitter metric.
		if pkt.Stream < draw.Clients && pkt.ID%16 == 0 {
			w.delaysMs = append(w.delaysMs, float64(pkt.Delivered-pkt.Created)*tickSec*1000)
		}
	}
	return w
}

var matrixHeader = []string{"arm", "workload", "band", "seed", "clients", "providers", "bystanders",
	"violated_frac", "agg_mbps", "delay_jitter_ms"}

// matrixTable renders a row per cell, with the fraction of guarantee
// windows violated across the cell's client streams.
func matrixTable(_ Params, results []Result) []Table {
	t := Table{Header: matrixHeader}
	for _, res := range results {
		c := res.measured.(cellOutcome)
		t.Rows = append(t.Rows, matrixRow(res.Algorithm, c.workload, c.draw,
			violatedFrac(res.Telemetry.Streams[:c.draw.Clients]...), c.aggMbps, c.jitterMs))
	}
	return []Table{t}
}

// matrixRow renders one cell under matrixHeader.
func matrixRow(arm, workload string, d BandDraw, violatedFrac, aggMbps, delayJitterMs float64) []string {
	return []string{arm, workload, d.Band, fmt.Sprint(d.Seed), fmt.Sprint(d.Clients), fmt.Sprint(d.Providers),
		fmt.Sprint(d.Bystanders), fmt.Sprintf("%.4f", violatedFrac), fmt.Sprintf("%.3f", aggMbps),
		fmt.Sprintf("%.4f", delayJitterMs)}
}
