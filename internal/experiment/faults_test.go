package experiment

import (
	"math/rand"
	"testing"

	"iqpaths/internal/faults"
	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

func faultCfg(durationSec float64) RunConfig {
	return RunConfig{Seed: 42, DurationSec: durationSec, WarmupSec: 60}
}

// TestDefaultFaultScheduleShape checks the script scales with the run
// length and stays inside the measured portion.
func TestDefaultFaultScheduleShape(t *testing.T) {
	cfg := faultCfg(100)
	sched, tl := DefaultFaultSchedule(cfg)
	if tl.Link != "N-3:N-5" {
		t.Fatalf("default script must target PathA's bottleneck, got %q", tl.Link)
	}
	if tl.OutageStartSec <= cfg.WarmupSec {
		t.Fatalf("outage at %v starts inside warmup (%v)", tl.OutageStartSec, cfg.WarmupSec)
	}
	end := cfg.WarmupSec + cfg.DurationSec
	for _, e := range sched {
		sec := float64(e.AtTick) * faultTickSec
		if sec < cfg.WarmupSec || sec > end {
			t.Fatalf("event %+v at %vs outside measured window [%v, %v]", e, sec, cfg.WarmupSec, end)
		}
	}
	// outage (2) + storm (2) + flap (3 cycles × 2) = 10 events
	if len(sched) != 10 {
		t.Fatalf("default schedule has %d events, want 10", len(sched))
	}
}

// TestRunFaultsDeterministic replays the full WFQ/MSFQ/PGOS comparison
// twice under the same seed; every number must be bit-for-bit identical.
func TestRunFaultsDeterministic(t *testing.T) {
	checkTypedReplay(t, "faults_seed42.golden", runFaults, func(r *FaultsResult) []Table { return []Table{faultsTable(r)} })
}

// TestRunFaultsAcceptance is the headline fault-tolerance claim: under an
// identical fault script, PGOS detects the CDF shift and remaps within a
// bounded number of scheduling windows, and the critical stream's
// violated-window fraction under PGOS is strictly lower than under both
// WFQ and MSFQ.
func TestRunFaultsAcceptance(t *testing.T) {
	skipIfRace(t)
	t.Parallel()
	res, err := runFaults(faultCfg(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(res.Runs))
	}
	byAlg := map[string]FaultRun{}
	for _, r := range res.Runs {
		byAlg[r.Algorithm] = r
	}
	// The identical script must have played fully in every run.
	want := res.Runs[0].FaultEvents
	if want == 0 {
		t.Fatal("no fault events applied")
	}
	for _, r := range res.Runs {
		if r.FaultEvents != want {
			t.Fatalf("%s applied %d fault events, others %d — script not identical", r.Algorithm, r.FaultEvents, want)
		}
	}

	pg := byAlg[AlgPGOS]
	if pg.Remaps == 0 {
		t.Fatal("PGOS never remapped despite a bottleneck outage")
	}
	if pg.RecoveryWindows < 1 || pg.RecoveryWindows > 15 {
		t.Fatalf("PGOS recovery = %d windows, want within [1, 15] of outage onset", pg.RecoveryWindows)
	}
	for _, alg := range []string{AlgWFQ, AlgMSFQ} {
		if n := byAlg[alg].Remaps; n != 0 {
			t.Fatalf("%s reports %d remaps; only PGOS remaps", alg, n)
		}
	}

	critical := func(r FaultRun) FaultStreamRow {
		for _, s := range r.Streams {
			if s.Name == res.Critical {
				return s
			}
		}
		t.Fatalf("%s run lacks critical stream %q", r.Algorithm, res.Critical)
		return FaultStreamRow{}
	}
	pgFrac := critical(pg).ViolatedFrac
	for _, alg := range []string{AlgWFQ, AlgMSFQ} {
		frac := critical(byAlg[alg]).ViolatedFrac
		if pgFrac >= frac {
			t.Fatalf("critical stream violated frac: PGOS %.4f, %s %.4f — PGOS must be strictly lower",
				pgFrac, alg, frac)
		}
	}
}

// TestFaultsDriveBlockedPathBackoff is the §5.2.2 end-to-end check: a
// scripted outage on a shallow-queued topology makes Path.Send refuse,
// PGOS's blocked-path backoff fires (SendFailures > 0) and throttles the
// retry rate (failures stay far below one per down tick), and traffic
// resumes after the script lifts the fault.
func TestFaultsDriveBlockedPathBackoff(t *testing.T) {
	net := simnet.New(0.01, rand.New(rand.NewSource(7)))
	la := net.AddLink(simnet.LinkConfig{Name: "A", CapacityMbps: 50, QueueLimit: 8})
	lb := net.AddLink(simnet.LinkConfig{Name: "B", CapacityMbps: 50, QueueLimit: 8})
	pa := net.AddPath("PathA", la)
	pb := net.AddPath("PathB", lb)
	monA := monitor.New("PathA", 100, 20)
	monB := monitor.New("PathB", 100, 20)
	samplers := []*monitor.Sampler{
		monitor.NewSampler(pa, monA),
		monitor.NewSampler(pb, monB),
	}
	st := stream.New(0, stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: 5, Probability: 0.9})
	s := pgos.New(pgos.Config{TickSeconds: 0.01, PaceLimit: 64},
		[]*stream.Stream{st}, []sched.PathService{pa, pb},
		[]*monitor.PathMonitor{monA, monB})

	const downFrom, downTo = 200, 600
	scn, err := faults.NewScenario("backoff", net,
		faults.CorrelatedOutage([]string{"A", "B"}, downFrom, downTo))
	if err != nil {
		t.Fatal(err)
	}

	var pktID uint64
	var failuresBeforeOutage, failuresAtRecovery, remapsBeforeOutage uint64
	for tick := int64(0); tick < 1300; tick++ {
		scn.Apply(tick)
		// ~4.8 Mbps offered load: four 12 kb packets per tick at 100 ticks/s.
		for i := 0; i < 4; i++ {
			pktID++
			p := net.NewPacket(0, 12000)
			p.ID = pktID
			st.Push(p)
		}
		s.Tick(tick)
		net.Step()
		for _, smp := range samplers {
			smp.Sample()
		}
		pa.TakeDelivered()
		pb.TakeDelivered()
		switch tick {
		case downFrom - 1:
			failuresBeforeOutage = s.Stats().SendFailures
			remapsBeforeOutage = s.Stats().Remaps
		case downTo - 1:
			failuresAtRecovery = s.Stats().SendFailures
		}
	}

	stats := s.Stats()
	if failuresBeforeOutage != 0 {
		t.Fatalf("SendFailures = %d before the outage; healthy paths must not refuse", failuresBeforeOutage)
	}
	duringOutage := failuresAtRecovery - failuresBeforeOutage
	if duringOutage == 0 {
		t.Fatal("outage with full queues never refused a send — blocked-path backoff cannot fire")
	}
	// 400 down ticks × 2 paths would mean ~800 refusals without backoff;
	// exponential backoff caps retries near log2 growth per window
	// (observed: ~20; the bound leaves headroom without admitting a
	// retry-every-tick regression).
	if duringOutage > 60 {
		t.Fatalf("SendFailures = %d during a %d-tick outage — backoff is not throttling retries",
			duringOutage, downTo-downFrom)
	}
	if stats.Remaps <= remapsBeforeOutage {
		t.Fatal("PGOS never remapped despite both path CDFs collapsing to zero")
	}
	if st.Len() > 50 {
		t.Fatalf("backlog %d after recovery — traffic did not resume", st.Len())
	}
}
