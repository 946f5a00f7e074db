package experiment

import "testing"

// TestRunChurnDeterministic replays the static/control churn comparison
// twice under the same seed; every number — including the admission
// decisions and their best-feasible-spec upcalls — must be bit-for-bit
// identical.
func TestRunChurnDeterministic(t *testing.T) {
	checkTypedReplay(t, "churn_seed42.golden", runChurn, churnTables)
}

// TestRunChurnAcceptance is the headline control-plane claim: under one
// scripted churn schedule (the best path's router fails and rejoins), the
// control plane converges within the gossip/detection bound, reroutes the
// path set, and the guaranteed stream's violated-window fraction is
// strictly lower than with routing frozen at the initial path set. The
// scripted admission probes must admit the running stream's own spec and
// deterministically reject an oversized one with a best-feasible-spec
// upcall.
func TestRunChurnAcceptance(t *testing.T) {
	skipIfRace(t)
	t.Parallel()
	cfg := faultCfg(60)
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Both modes played the identical membership script.
	if res.Static.ControlEvents == 0 || res.Static.ControlEvents != res.Control.ControlEvents {
		t.Fatalf("control events static=%d control=%d — script not identical",
			res.Static.ControlEvents, res.Control.ControlEvents)
	}
	if res.Static.Reroutes != 0 {
		t.Fatalf("static mode rerouted %d times; routing must stay frozen", res.Static.Reroutes)
	}
	if res.Control.Reroutes < 1 {
		t.Fatal("control mode never rerouted despite the best path's router failing")
	}

	// Convergence is measured and bounded: failure detection plus at most
	// two gossip rounds (witness seeding lands on or just before a round).
	bound := int64((res.Timeline.DetectSec + 2*res.Timeline.GossipSec) / churnTickSec)
	if res.Control.ConvergeTicks < 0 {
		t.Fatal("control mode reports no completed convergence")
	}
	if res.Control.ConvergeTicks > bound {
		t.Fatalf("convergence took %d ticks, bound %d (detect %vs + 2 gossip rounds)",
			res.Control.ConvergeTicks, bound, res.Timeline.DetectSec)
	}

	// The control plane must strictly improve the guaranteed stream.
	critical := func(r ChurnRun) FaultStreamRow {
		for _, s := range r.Streams {
			if s.Name == res.Critical {
				return s
			}
		}
		t.Fatalf("%s run lacks critical stream %q", r.Mode, res.Critical)
		return FaultStreamRow{}
	}
	sf, cf := critical(res.Static).ViolatedFrac, critical(res.Control).ViolatedFrac
	if sf == 0 {
		t.Fatal("static run shows no violations — churn script had no effect")
	}
	if cf >= sf {
		t.Fatalf("critical violated frac: control %.4f, static %.4f — control must be strictly lower", cf, sf)
	}

	// Scripted admission probes: the running stream's own spec fits, the
	// oversized one is rejected with a usable counter-offer.
	if len(res.Admission) != 2 {
		t.Fatalf("admission decisions = %d, want 2", len(res.Admission))
	}
	gold, whale := res.Admission[0], res.Admission[1]
	if !gold.Admitted {
		t.Fatalf("running stream's own spec rejected: %+v", gold)
	}
	if whale.Admitted {
		t.Fatalf("oversized stream admitted: %+v", whale)
	}
	if whale.Reason == "" {
		t.Fatal("rejection carries no reason")
	}
	if whale.BestSpec == nil {
		t.Fatal("rejection carries no best-feasible-spec upcall")
	}
	if whale.BestSpec.RequiredMbps <= 0 || whale.BestSpec.RequiredMbps >= whale.Spec.RequiredMbps {
		t.Fatalf("best feasible rate %v not in (0, %v)", whale.BestSpec.RequiredMbps, whale.Spec.RequiredMbps)
	}
}
