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
	// Events is the number of churn script steps (default 40).
	// knob: the cluster_seed<N>.golden cases run 25 events, 120 rounds
	// and 20 drain rounds, and TestRenderCluster a smaller script.
	Events int
	// Rounds bounds the gossip rounds spent inside the event phase
	// (default 200); Drain rounds follow with churn quiesced (default 24).
	// knob: set with Events by the cluster goldens and TestRenderCluster.
	Rounds, Drain int
	// Seed drives the script and both engines' fanout/loss draws.
	Seed int64
}

// clusterLossProb is the simulated delta-push loss; anti-entropy is
// always lossless.
const clusterLossProb = 0.2

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
	if c.Seed == 0 {
		c.Seed = 42
	}
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

// runCluster sweeps the overlay sizes, running the identical script
// through the delta mesh and the flood oracle at each size, and
// differentially comparing their final tables byte for byte. Each row is
// one (overlay size, engine) measurement: gossip rounds from origination
// to every up node covering the change (mean and max); the fraction of
// (up node, round) samples whose view missed an in-flight change — the
// bound on control decisions taken from a stale view; total wire traffic
// and its per-node-per-round share (the flat-cost claim); and whether the
// two engines' final tables matched on every node.
func runCluster(cfg ClusterConfig) (Table, error) {
	cfg.fillDefaults()
	t := Table{Header: []string{
		"nodes", "clusters", "mode", "events", "mean_conv_ticks", "max_conv_ticks", "violated_frac",
		"kbytes", "B_per_node_round", "tables_match",
	}}
	for _, n := range cfg.Nodes {
		if n <= 0 {
			return Table{}, fmt.Errorf("cluster: invalid node count %d", n)
		}
		p := gossip.Params{Nodes: n, LossProb: clusterLossProb, Seed: cfg.Seed}
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
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", n), fmt.Sprintf("%d", eng.topo.Clusters()), eng.mode,
				fmt.Sprintf("%d", cfg.Events), fmt.Sprintf("%.2f", eng.s.MeanConvRounds()),
				fmt.Sprintf("%d", eng.s.MaxConvRounds), fmt.Sprintf("%.4f", eng.s.ViolatedFrac()),
				fmt.Sprintf("%.1f", float64(eng.s.Bytes)/1024),
				fmt.Sprintf("%.1f", float64(eng.s.Bytes)/float64(n)/float64(eng.s.Rounds)),
				fmt.Sprintf("%v", match),
			})
		}
	}
	return t, nil
}
