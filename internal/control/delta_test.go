package control

import (
	"testing"

	"iqpaths/internal/gossip"
	"iqpaths/internal/overlay"
)

// TestClusterViewsMatchFlatOracle runs the identical churn schedule
// through the flat neighbor-max dissemination and the clustered
// delta/anti-entropy mesh: both must converge every up node to the
// final topology version, with identical final view vectors — the
// control-plane half of the differential oracle.
func TestClusterViewsMatchFlatOracle(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		build := func(cluster *gossip.Params) *Controller {
			g, s, c, r := lineGraph(30)
			var schedule Schedule
			for i := int64(0); i < 6; i++ {
				n := r[(int(seed)+int(i)*5)%len(r)]
				start := 20 + i*60
				var attach []overlay.NodeID
				if idx := nodeIndex(r, n); idx > 0 {
					attach = append(attach, r[idx-1])
				} else {
					attach = append(attach, s)
				}
				if idx := nodeIndex(r, n); idx < len(r)-1 {
					attach = append(attach, r[idx+1])
				} else {
					attach = append(attach, c)
				}
				schedule = Compose(schedule, FailRecover(n, start, start+25, attach...))
			}
			ctl, err := New(Config{
				Graph: g, Src: s, Dst: c,
				GossipIntervalTicks: 2,
				Cluster:             cluster,
			}, schedule)
			if err != nil {
				t.Fatal(err)
			}
			for now := int64(0); now < 600; now++ {
				ctl.Tick(now)
			}
			if !ctl.Done() {
				t.Fatal("schedule not exhausted")
			}
			return ctl
		}

		flat := build(nil)
		clustered := build(&gossip.Params{ClusterSize: 8, Seed: seed})

		if !flat.Converged() {
			t.Fatalf("seed %d: flat oracle did not converge", seed)
		}
		if !clustered.Converged() {
			t.Fatalf("seed %d: clustered controller did not converge", seed)
		}
		fv, cv := flat.Views(), clustered.Views()
		for i := range fv {
			if fv[i] != cv[i] {
				t.Fatalf("seed %d: node %d view %d (clustered) != %d (flat)", seed, i, cv[i], fv[i])
			}
		}
		if clustered.MaxConvergenceTicks() < 0 {
			t.Fatalf("seed %d: clustered controller recorded no convergence", seed)
		}
		stats, ok := clustered.ClusterStats()
		if !ok || stats.Bytes == 0 {
			t.Fatalf("seed %d: no mesh traffic (%+v, %v)", seed, stats, ok)
		}
		if _, ok := flat.ClusterStats(); ok {
			t.Fatal("flat controller must report no cluster stats")
		}
		if tab := clustered.ClusterTable(0); tab == nil || len(tab.Records()) == 0 {
			t.Fatalf("seed %d: source table empty", seed)
		}
	}
}

func nodeIndex(r []overlay.NodeID, n overlay.NodeID) int {
	for i, x := range r {
		if x == n {
			return i
		}
	}
	return -1
}

// TestClusterLossyStillConverges turns on delta loss: convergence must
// still complete (anti-entropy repairs), just possibly later.
func TestClusterLossyStillConverges(t *testing.T) {
	g, s, c, r := lineGraph(20)
	schedule := Compose(
		FailRecover(r[5], 20, 60, r[4], r[6]),
		FailRecover(r[12], 100, 140, r[11], r[13]),
	)
	ctl, err := New(Config{
		Graph: g, Src: s, Dst: c,
		GossipIntervalTicks: 2,
		Cluster:             &gossip.Params{ClusterSize: 5, LossProb: 0.4, Seed: 3},
	}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 400; now++ {
		ctl.Tick(now)
	}
	if !ctl.Converged() {
		t.Fatal("clustered controller did not converge under 40% delta loss")
	}
	stats, _ := ctl.ClusterStats()
	if stats.DigestBytes == 0 {
		t.Fatal("anti-entropy never exchanged digests")
	}
}
