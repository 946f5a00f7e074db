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

// MatrixScenario is a concrete scenario drawn from a Band for one seed.
type MatrixScenario struct {
	Band string
	Seed int64
	// Clients/Providers/Bystanders are the drawn group sizes.
	Clients, Providers, Bystanders int
	// BystanderMbps is the drawn per-bystander on-rate.
	BystanderMbps float64
	// Paths are the per-path draws, matrixPaths long.
	Paths []PathDraw
}

// fnvSeed folds a band name into a seed offset so each (band, seed) pair
// draws an independent, stable scenario.
func fnvSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// DrawScenario deterministically instantiates band under seed.
func DrawScenario(b Band, seed int64) MatrixScenario {
	rng := rand.New(rand.NewSource(seed ^ fnvSeed(b.Name)))
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
	scn := MatrixScenario{
		Band:          b.Name,
		Seed:          seed,
		Clients:       intIn(b.Clients),
		Providers:     intIn(b.Providers),
		Bystanders:    intIn(b.Bystanders),
		BystanderMbps: fIn(b.BystanderMbps),
	}
	if scn.Clients < 1 {
		scn.Clients = 1
	}
	for j := 0; j < matrixPaths; j++ {
		scn.Paths = append(scn.Paths, PathDraw{
			LatencyMs:     fIn(b.LatencyMs),
			BandwidthMbps: fIn(b.BandwidthMbps),
			JitterMbps:    fIn(b.JitterMbps),
			LossPct:       fIn(b.LossPct),
		})
	}
	// Bystanders land round-robin across paths.
	for i := 0; i < scn.Bystanders; i++ {
		scn.Paths[i%matrixPaths].Bystanders++
	}
	return scn
}

// buildScenarioNet assembles a matrixPaths-wide testbed realizing scn:
// each path is an ingress–bottleneck–egress chain, the bottleneck carrying
// the drawn capacity, latency, loss, Gaussian jitter, and the path's share
// of bystander cross sources.
func buildScenarioNet(scn MatrixScenario) (*simnet.Network, []*simnet.Path) {
	const tickSec = 0.01
	net := simnet.New(tickSec, rand.New(rand.NewSource(scn.Seed)))
	paths := make([]*simnet.Path, len(scn.Paths))
	for j, pd := range scn.Paths {
		crossRng := rand.New(rand.NewSource(scn.Seed + int64(j)*101 + 1))
		parts := []trace.Generator{
			trace.NewGaussian(pd.JitterMbps, pd.JitterMbps/2, crossRng),
		}
		for i := 0; i < pd.Bystanders; i++ {
			parts = append(parts, trace.NewParetoOnOff(
				scn.BystanderMbps, 1.5, 200, 600,
				rand.New(rand.NewSource(scn.Seed+int64(j)*101+int64(i)*17+2))))
		}
		delayTicks := int(pd.LatencyMs/1000/tickSec + 0.5)
		if delayTicks < 1 {
			delayTicks = 1
		}
		mk := func(name string, capMbps float64, delay int, loss float64, cross trace.Generator) *simnet.Link {
			return net.AddLink(simnet.LinkConfig{
				Name:         name,
				CapacityMbps: capMbps,
				DelayTicks:   delay,
				QueueLimit:   1000,
				LossProb:     loss,
				Cross:        cross,
			})
		}
		in := mk(fmt.Sprintf("S:R%d", j), 100, 1, 0, nil)
		mid := mk(fmt.Sprintf("R%d:R%d'", j, j), pd.BandwidthMbps, delayTicks,
			pd.LossPct/100, trace.NewSum(parts...))
		out := mk(fmt.Sprintf("R%d':C", j), 100, 1, 0, nil)
		paths[j] = net.AddPath(fmt.Sprintf("Path%d", j), in, mid, out)
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

// matrixWorkloads builds the named workload's streams and sources on net
// for the drawn scenario. Client streams always occupy IDs
// [0, scn.Clients) and carry the guarantees; provider streams follow as
// best-effort.
var matrixWorkloads = map[string]func(net *simnet.Network, scn MatrixScenario) sources{
	// smartpointer: frame-structured interactive clients (25 fps with
	// per-frame deadlines) against backlogged providers.
	"smartpointer": func(net *simnet.Network, scn MatrixScenario) sources {
		var w sources
		for i := 0; i < scn.Clients; i++ {
			st := stream.New(i, stream.Spec{
				Name: fmt.Sprintf("C%d", i), Kind: stream.Probabilistic,
				RequiredMbps: matrixClientMbps, Probability: 0.95,
			})
			w.add(st, stream.NewFrameSource(net, st, 25, matrixClientMbps*1e6/8/25))
		}
		for i := 0; i < scn.Providers; i++ {
			st := stream.New(scn.Clients+i, stream.Spec{
				Name: fmt.Sprintf("P%d", i), Weight: 40,
			})
			w.add(st, stream.NewBacklogSource(net, st, 1000))
		}
		return w
	},
	// gridftp: guaranteed bulk movers (always backlogged) against
	// best-effort bulk providers — the striped-transfer shape.
	"gridftp": func(net *simnet.Network, scn MatrixScenario) sources {
		var w sources
		for i := 0; i < scn.Clients; i++ {
			st := stream.New(i, stream.Spec{
				Name: fmt.Sprintf("DT%d", i), Kind: stream.Probabilistic,
				RequiredMbps: matrixClientMbps, Probability: 0.95,
				Weight: matrixClientMbps,
			})
			w.add(st, stream.NewBacklogSource(net, st, 1000))
		}
		for i := 0; i < scn.Providers; i++ {
			st := stream.New(scn.Clients+i, stream.Spec{
				Name: fmt.Sprintf("BG%d", i), Weight: 20,
			})
			w.add(st, stream.NewBacklogSource(net, st, 1000))
		}
		return w
	},
	// cbr: constant-bit-rate guaranteed clients (finite offered load)
	// against rate-limited best-effort providers.
	"cbr": func(net *simnet.Network, scn MatrixScenario) sources {
		var w sources
		for i := 0; i < scn.Clients; i++ {
			st := stream.New(i, stream.Spec{
				Name: fmt.Sprintf("C%d", i), Kind: stream.Probabilistic,
				RequiredMbps: matrixClientMbps, Probability: 0.95,
			})
			// 10 % arrival headroom over the guarantee: offering exactly the
			// quota sits on a quantization knife-edge where every window
			// boundary can fall one packet short.
			w.add(st, stream.NewRateSource(net, st, matrixClientMbps*1.1))
		}
		for i := 0; i < scn.Providers; i++ {
			st := stream.New(scn.Clients+i, stream.Spec{
				Name: fmt.Sprintf("P%d", i), Weight: 30,
			})
			w.add(st, stream.NewRateSource(net, st, matrixProviderMbps))
		}
		return w
	},
}

// MatrixWorkloadNames returns the sorted workload names RunMatrix accepts.
func MatrixWorkloadNames() []string {
	names := make([]string, 0, len(matrixWorkloads))
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
	// Seeds drive the per-band scenario draws and the emulator RNG.
	Seeds []int64
	// WarmupSec/DurationSec/TwSec/PaceLimit configure each cell run
	// (defaults 5 / 10 / 1 / DefaultPaceLimit).
	WarmupSec, DurationSec, TwSec float64
	PaceLimit                     int
}

// DefaultBands is the stock band set: a quiet LAN, a long-haul WAN, a
// lossy path pair, and a congested regime where guaranteed demand brushes
// capacity.
func DefaultBands() []Band {
	return []Band{
		{
			Name:    "lan",
			Clients: [2]int{2, 3}, Providers: [2]int{1, 2}, Bystanders: [2]int{0, 2},
			LatencyMs: [2]float64{1, 5}, BandwidthMbps: [2]float64{80, 100},
			JitterMbps: [2]float64{2, 6}, LossPct: [2]float64{0, 0},
			BystanderMbps: [2]float64{1, 3},
		},
		{
			Name:    "wan",
			Clients: [2]int{2, 4}, Providers: [2]int{1, 3}, Bystanders: [2]int{2, 6},
			LatencyMs: [2]float64{20, 60}, BandwidthMbps: [2]float64{40, 80},
			JitterMbps: [2]float64{5, 15}, LossPct: [2]float64{0, 0.2},
			BystanderMbps: [2]float64{2, 6},
		},
		{
			Name:    "lossy",
			Clients: [2]int{1, 3}, Providers: [2]int{1, 2}, Bystanders: [2]int{1, 4},
			LatencyMs: [2]float64{10, 30}, BandwidthMbps: [2]float64{30, 60},
			JitterMbps: [2]float64{8, 20}, LossPct: [2]float64{0.5, 2},
			BystanderMbps: [2]float64{2, 5},
		},
		{
			Name:    "congested",
			Clients: [2]int{3, 5}, Providers: [2]int{2, 4}, Bystanders: [2]int{4, 10},
			LatencyMs: [2]float64{5, 15}, BandwidthMbps: [2]float64{25, 45},
			JitterMbps: [2]float64{10, 25}, LossPct: [2]float64{0, 0.5},
			BystanderMbps: [2]float64{3, 8},
		},
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

// CellRow is one (arm, workload, band, seed) cell's measured outcome.
type CellRow struct {
	Arm, Workload, Band string
	Seed                int64
	// Clients/Providers/Bystanders echo the drawn group sizes.
	Clients, Providers, Bystanders int
	// ViolatedFrac is the fraction of guarantee windows violated across
	// the cell's guaranteed (client) streams.
	ViolatedFrac float64
	// AggMbps is the aggregate delivered goodput across all streams over
	// the measured window.
	AggMbps float64
	// DelayJitterMs is the standard deviation of sampled client one-way
	// delays in milliseconds.
	DelayJitterMs float64
}

// MatrixResult is the full grid outcome, rows in deterministic
// arm-major/workload/band/seed order.
type MatrixResult struct {
	Rows []CellRow
}

// fillDefaults applies the cell-run defaults.
func (m *Matrix) fillDefaults() {
	// Warmup must outlast the monitors' 100-sample (10 s) warm threshold,
	// or prediction-driven arms start the measured window on cold
	// distributions.
	if m.WarmupSec <= 0 {
		m.WarmupSec = 12
	}
	if m.DurationSec <= 0 {
		m.DurationSec = 10
	}
	if m.TwSec <= 0 {
		m.TwSec = 1
	}
	if m.PaceLimit <= 0 {
		m.PaceLimit = sched.DefaultPaceLimit
	}
}

// RunMatrix executes every cell of the grid. Unknown arms error through
// the scheduler registry with the registered list; unknown workloads error
// with the known workload names.
func RunMatrix(m Matrix) (*MatrixResult, error) {
	m.fillDefaults()
	if len(m.Arms) == 0 || len(m.Workloads) == 0 || len(m.Bands) == 0 || len(m.Seeds) == 0 {
		return nil, fmt.Errorf("experiment: matrix needs at least one arm, workload, band, and seed")
	}
	for _, w := range m.Workloads {
		if matrixWorkloads[w] == nil {
			return nil, fmt.Errorf("experiment: unknown matrix workload %q (known: %s)",
				w, strings.Join(MatrixWorkloadNames(), ", "))
		}
	}
	out := &MatrixResult{}
	for _, arm := range m.Arms {
		for _, wl := range m.Workloads {
			for _, band := range m.Bands {
				for _, seed := range m.Seeds {
					row, err := runMatrixCell(m, arm, wl, band, seed)
					if err != nil {
						return nil, fmt.Errorf("experiment: matrix cell %s/%s/%s/seed%d: %w",
							arm, wl, band.Name, seed, err)
					}
					out.Rows = append(out.Rows, row)
				}
			}
		}
	}
	return out, nil
}

// runMatrixCell draws the scenario, realizes it as a testbed, and measures
// one arm × workload run on the shared runner.
func runMatrixCell(m Matrix, arm, wl string, band Band, seed int64) (CellRow, error) {
	scn := DrawScenario(band, seed)
	net, paths := buildScenarioNet(scn)
	w := matrixWorkloads[wl](net, scn)
	cfg := RunConfig{Algorithm: arm, WarmupSec: m.WarmupSec, DurationSec: m.DurationSec,
		TwSec: m.TwSec, PaceLimit: m.PaceLimit}
	cfg.fillDefaults()

	tickSec := net.TickSeconds()
	warmupTicks := int64(cfg.WarmupSec / tickSec)
	var aggBits float64
	var delaysMs []float64
	res, err := run(cfg, net, paths, w, hooks{
		onDeliver: func(_ int, pkt *simnet.Packet, t int64) {
			if t < warmupTicks {
				return
			}
			aggBits += pkt.Bits
			// Sparse one-way-delay samples on client streams feed the
			// delay-jitter metric.
			if pkt.Stream < scn.Clients && pkt.ID%16 == 0 {
				delaysMs = append(delaysMs, float64(pkt.Delivered-pkt.Created)*tickSec*1000)
			}
		},
	})
	if err != nil {
		return CellRow{}, err
	}

	row := CellRow{
		Arm: arm, Workload: wl, Band: band.Name, Seed: seed,
		Clients: scn.Clients, Providers: scn.Providers, Bystanders: scn.Bystanders,
		AggMbps: aggBits / 1e6 / m.DurationSec,
	}
	var windows, violated int
	for i, a := range res.Accounts {
		if i < scn.Clients {
			windows += a.Windows
			violated += a.ViolatedWindows
		}
	}
	if windows > 0 {
		row.ViolatedFrac = float64(violated) / float64(windows)
	}
	row.DelayJitterMs = stats.Summarize(delaysMs).StdDev
	return row, nil
}

// RenderMatrix renders the per-cell rows.
func RenderMatrix(res *MatrixResult) Table {
	header := []string{
		"arm", "workload", "band", "seed", "clients", "providers", "bystanders",
		"violated_frac", "agg_mbps", "delay_jitter_ms",
	}
	var out [][]string
	for _, r := range res.Rows {
		out = append(out, []string{
			r.Arm, r.Workload, r.Band,
			fmt.Sprintf("%d", r.Seed),
			fmt.Sprintf("%d", r.Clients),
			fmt.Sprintf("%d", r.Providers),
			fmt.Sprintf("%d", r.Bystanders),
			fmt.Sprintf("%.4f", r.ViolatedFrac),
			fmt.Sprintf("%.3f", r.AggMbps),
			fmt.Sprintf("%.4f", r.DelayJitterMs),
		})
	}
	return Table{Header: header, Rows: out}
}
