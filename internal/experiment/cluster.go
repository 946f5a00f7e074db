package experiment

import (
	"bytes"
	"fmt"
	"math/rand"

	"iqpaths/internal/gossip"
	"iqpaths/internal/overlay"
)

// ClusterConfig parameterizes the cluster-scale dissemination figure:
// the same seeded churn script (bursts of link-state originations plus
// membership flips) replayed at each overlay size through both the
// delta/anti-entropy mesh and the full-flood oracle, measuring
// convergence rounds, the violated-view fraction, and wire cost.
type ClusterConfig struct {
	// Nodes lists the overlay sizes to sweep (default 100, 1000, 5000).
	Nodes []int
	// ClusterSize is nodes per cluster (default 0 = ceil(sqrt(N))).
	ClusterSize int
	// Events is the number of churn script steps (default 40).
	Events int
	// Rounds bounds the gossip rounds spent inside the event phase
	// (default 200); Drain rounds follow with churn quiesced (default 24).
	Rounds int
	Drain  int
	// LossProb is the simulated delta-push loss (default 0.2);
	// anti-entropy is always lossless.
	LossProb float64
	// Seed drives the script and both engines' fanout/loss draws.
	Seed int64
}

func (c *ClusterConfig) fillDefaults() {
	if len(c.Nodes) == 0 {
		c.Nodes = []int{100, 1000, 5000}
	}
	if c.Events <= 0 {
		c.Events = 40
	}
	if c.Rounds <= 0 {
		c.Rounds = 200
	}
	if c.Drain <= 0 {
		c.Drain = 24
	}
	if c.LossProb == 0 {
		c.LossProb = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// ClusterRow is one (overlay size, engine) measurement.
type ClusterRow struct {
	Nodes    int
	Clusters int
	// Mode is "delta" (mesh) or "flood" (oracle).
	Mode   string
	Events int
	// MeanConvTicks/MaxConvTicks are gossip rounds from origination to
	// every up node covering the change.
	MeanConvTicks float64
	MaxConvTicks  int64
	// ViolatedFrac is the fraction of (up node, round) samples where the
	// node's view was missing at least one in-flight change — the bound
	// on control decisions taken from a stale view.
	ViolatedFrac float64
	// KBytes is total wire traffic through the codec; BPerNodeRound
	// normalizes it per node per round (the flat-cost claim).
	KBytes        float64
	BPerNodeRound float64
	// TablesMatch reports byte-identical final link-state tables against
	// the other engine on every node (the differential guarantee).
	TablesMatch bool
}

// runClusterScript drives one engine through the seeded churn script:
// bursts of originations from up witnesses, occasional membership
// flips (downs bounded to a quarter of the overlay, FIFO recovery),
// then full recovery and a drain. Pure function of (cfg, nodes) — both
// engines see the identical call sequence.
func runClusterScript(cfg ClusterConfig, nodes int, e gossip.Engine) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	isDown := make([]bool, nodes)
	var down []overlay.NodeID
	ver := int64(0)
	now := int64(0)
	pickUp := func() overlay.NodeID {
		for {
			n := overlay.NodeID(rng.Intn(nodes))
			if !isDown[n] {
				return n
			}
		}
	}
	for i := 0; i < cfg.Events; i++ {
		for b := rng.Intn(3) + 1; b > 0; b-- {
			w := pickUp()
			ver++
			key := gossip.LinkKey{From: w, To: overlay.NodeID(rng.Intn(nodes))}
			e.Originate(w, key, rng.Intn(4) != 0, float64(rng.Intn(1000))/4, ver)
		}
		switch rng.Intn(4) {
		case 0:
			if len(down) < nodes/4 {
				n := pickUp()
				isDown[n] = true
				down = append(down, n)
				e.SetNodeUp(n, false)
			}
		case 1:
			if len(down) > 0 {
				n := down[0]
				down = down[1:]
				isDown[n] = false
				e.SetNodeUp(n, true)
			}
		}
		steps := int64(rng.Intn(3) + 1)
		for r := int64(0); r < steps && now < int64(cfg.Rounds); r++ {
			now++
			e.Round(now)
		}
	}
	for _, n := range down {
		e.SetNodeUp(n, true)
	}
	for i := 0; i < cfg.Drain; i++ {
		now++
		e.Round(now)
	}
}

// RunCluster sweeps the overlay sizes, running the identical script
// through the delta mesh and the flood oracle at each size, and
// differentially comparing their final tables byte for byte.
func RunCluster(cfg ClusterConfig) ([]ClusterRow, error) {
	cfg.fillDefaults()
	var rows []ClusterRow
	for _, n := range cfg.Nodes {
		if n <= 0 {
			return nil, fmt.Errorf("cluster: invalid node count %d", n)
		}
		p := gossip.Params{Nodes: n, ClusterSize: cfg.ClusterSize, LossProb: cfg.LossProb, Seed: cfg.Seed}
		mesh := gossip.NewMesh(p)
		flood := gossip.NewFullFlood(p)
		runClusterScript(cfg, n, mesh)
		runClusterScript(cfg, n, flood)

		match := mesh.Converged() && flood.Converged()
		var mb, fb []byte
		for i := 0; match && i < n; i++ {
			id := overlay.NodeID(i)
			mb = mesh.Table(id).AppendCanonical(mb[:0])
			fb = flood.Table(id).AppendCanonical(fb[:0])
			match = bytes.Equal(mb, fb)
		}
		for _, eng := range []struct {
			mode string
			s    gossip.Stats
			topo *gossip.Topology
		}{
			{"delta", mesh.Stats(), mesh.Topology()},
			{"flood", flood.Stats(), flood.Topology()},
		} {
			rows = append(rows, ClusterRow{
				Nodes:         n,
				Clusters:      eng.topo.Clusters(),
				Mode:          eng.mode,
				Events:        cfg.Events,
				MeanConvTicks: eng.s.MeanConvRounds(),
				MaxConvTicks:  eng.s.MaxConvRounds,
				ViolatedFrac:  eng.s.ViolatedFrac(),
				KBytes:        float64(eng.s.Bytes) / 1024,
				BPerNodeRound: float64(eng.s.Bytes) / float64(n) / float64(eng.s.Rounds),
				TablesMatch:   match,
			})
		}
	}
	return rows, nil
}

// RenderCluster renders the sweep rows — the convergence-ticks and
// violated-fraction curves vs node count, per engine.
func RenderCluster(rows []ClusterRow) Table {
	header := []string{
		"nodes", "clusters", "mode", "events",
		"mean_conv_ticks", "max_conv_ticks", "violated_frac",
		"kbytes", "B_per_node_round", "tables_match",
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Clusters),
			r.Mode,
			fmt.Sprintf("%d", r.Events),
			fmt.Sprintf("%.2f", r.MeanConvTicks),
			fmt.Sprintf("%d", r.MaxConvTicks),
			fmt.Sprintf("%.4f", r.ViolatedFrac),
			fmt.Sprintf("%.1f", r.KBytes),
			fmt.Sprintf("%.1f", r.BPerNodeRound),
			fmt.Sprintf("%v", r.TablesMatch),
		})
	}
	return Table{Header: header, Rows: out}
}
