package experiment

import (
	"math"
	"strings"
	"testing"

	"iqpaths/internal/telemetry"
)

// TestViolationBoundTelemetryAgreement is the acceptance check for the
// guarantee accountant: the telemetry snapshot's per-stream violation
// accounting must match the values runViolationBound's own, fully
// independent per-window counting loop computes.
func TestViolationBoundTelemetryAgreement(t *testing.T) {
	cfg := RunConfig{Seed: 42, DurationSec: 60, WarmupSec: 60}
	res, err := runViolationBound(cfg, 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || len(res.Telemetry.Streams) != 2 {
		t.Fatalf("snapshot missing: %+v", res.Telemetry)
	}
	vb := res.Telemetry.Streams[0]
	if vb.Name != "vb" || vb.Kind != "violation-bound" {
		t.Fatalf("wrong stream account first: %+v", vb)
	}
	if wantWindows := int(cfg.DurationSec / 1.0); vb.Windows != wantWindows {
		t.Fatalf("windows = %d, want %d", vb.Windows, wantWindows)
	}
	// The accountant's empirical E[Z] against the independent checker's.
	if math.Abs(vb.MeanShortfall-res.MeanViolations) > 1e-9 {
		t.Fatalf("accountant mean shortfall %v != independent checker %v",
			vb.MeanShortfall, res.MeanViolations)
	}
	// Violated windows must equal the independent count of windows with a
	// positive shortfall; when none fell short both sides must agree on 0.
	if (vb.ViolatedWindows == 0) != (res.MeanViolations == 0 && res.WorstViolations == 0) {
		t.Fatalf("violation presence disagrees: account=%+v checker mean=%v worst=%v",
			vb, res.MeanViolations, res.WorstViolations)
	}
	// Registry counters must mirror the account (two separate paths
	// through the telemetry package).
	if c := res.Telemetry.Counters[`iqpaths_guarantee_violated_windows_total{stream="vb"}`]; c != uint64(vb.ViolatedWindows) {
		t.Fatalf("violated counter %d != account %d", c, vb.ViolatedWindows)
	}
	if c := res.Telemetry.Counters[`iqpaths_guarantee_windows_total{stream="vb"}`]; c != uint64(vb.Windows) {
		t.Fatalf("windows counter %d != account %d", c, vb.Windows)
	}
	t.Logf("vb: windows=%d violated=%d meanShortfall=%.3f (checker %.3f) deliveredMbps=%.2f",
		vb.Windows, vb.ViolatedWindows, vb.MeanShortfall, res.MeanViolations, vb.DeliveredMbps)
}

// TestRunnerTelemetrySnapshot checks the snapshot a PGOS SmartPointer run
// attaches: guarantee accounts consistent with the runner's own
// throughput series, scheduler counters mirroring pgos.Stats, and the
// emulator's per-link metrics present.
func TestRunnerTelemetrySnapshot(t *testing.T) {
	skipIfRace(t)
	res, err := RunSmartPointer(shortCfg(AlgPGOS))
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("no telemetry snapshot")
	}
	if len(snap.Streams) != 3 {
		t.Fatalf("stream accounts = %d", len(snap.Streams))
	}
	for i, acc := range snap.Streams {
		ss := res.Streams[i]
		if acc.Name != ss.Name {
			t.Fatalf("account %d name %q != stream %q", i, acc.Name, ss.Name)
		}
		if acc.Windows != len(ss.Total) {
			t.Fatalf("%s: %d windows, %d samples", acc.Name, acc.Windows, len(ss.Total))
		}
		// With TwSec == SampleSec the accountant's windows align with the
		// runner's sample intervals, so its delivered bandwidth must equal
		// the series mean — an independent path through the same packets.
		if math.Abs(acc.DeliveredMbps-ss.Summary.Mean) > 1e-6 {
			t.Fatalf("%s: accountant %.6f Mbps != series mean %.6f",
				acc.Name, acc.DeliveredMbps, ss.Summary.Mean)
		}
		if acc.QuotaPackets > 0 {
			if acc.AchievedProb < 0 || acc.AchievedProb > 1 {
				t.Fatalf("%s: achieved prob %v", acc.Name, acc.AchievedProb)
			}
			if c := snap.Counters[`iqpaths_guarantee_violated_windows_total{stream="`+acc.Name+`"}`]; c != uint64(acc.ViolatedWindows) {
				t.Fatalf("%s: counter %d != account %d", acc.Name, c, acc.ViolatedWindows)
			}
		}
	}
	// Scheduler metrics mirror the legacy stats struct.
	if res.PGOSStats == nil {
		t.Fatal("no PGOS stats")
	}
	if c := snap.Counters["iqpaths_pgos_remaps_total"]; c != res.PGOSStats.Remaps {
		t.Fatalf("remaps counter %d != stats %d", c, res.PGOSStats.Remaps)
	}
	if c := snap.Counters["iqpaths_pgos_scheduled_sent_total"]; c != res.PGOSStats.ScheduledSent {
		t.Fatalf("scheduled counter %d != stats %d", c, res.PGOSStats.ScheduledSent)
	}
	if snap.Remaps != res.PGOSStats.Remaps {
		t.Fatalf("accountant remap events %d != scheduler remaps %d",
			snap.Remaps, res.PGOSStats.Remaps)
	}
	// Emulator instrumentation: link utilization histograms and per-path
	// delivery counters must be populated.
	var utilSeen, pathSeen bool
	for k, h := range snap.Histograms {
		if strings.HasPrefix(k, "iqpaths_simnet_link_utilization{") && h.Count > 0 {
			utilSeen = true
		}
	}
	for k, c := range snap.Counters {
		if strings.HasPrefix(k, "iqpaths_simnet_path_delivered_total{") && c > 0 {
			pathSeen = true
		}
	}
	if !utilSeen || !pathSeen {
		t.Fatalf("emulator metrics missing (util=%v path=%v)", utilSeen, pathSeen)
	}
	// The virtual-time trace: remap events stamped within the run's
	// virtual duration.
	var remapEvents int
	for _, ev := range snap.Events {
		if ev.Name == "remap" {
			remapEvents++
			if ev.T < 0 || ev.T > snap.TakenAt {
				t.Fatalf("remap event at virtual t=%v outside run [0, %v]", ev.T, snap.TakenAt)
			}
		}
	}
	if remapEvents == 0 {
		t.Fatal("no remap events traced")
	}
	if want := 120.0; snap.TakenAt != want { // 60 s warmup + 60 s measured
		t.Fatalf("snapshot virtual time = %v, want %v", snap.TakenAt, want)
	}
}

// TestNonPGOSRunsCarrySnapshots: baselines get emulator + guarantee
// telemetry too (no scheduler metrics, but accounts still real).
func TestNonPGOSRunSnapshot(t *testing.T) {
	res, err := RunSmartPointer(shortCfg(AlgMSFQ))
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil || len(res.Telemetry.Streams) != 3 {
		t.Fatal("baseline run missing telemetry")
	}
	if res.Telemetry.Streams[0].DeliveredPackets == 0 {
		t.Fatal("no deliveries accounted")
	}
}

// TestSnapshotPrometheusRoundTrip ensures a run registry's exposition
// stays parseable end to end (the same path iqpathsd serves).
func TestSnapshotPrometheusRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("iqpaths_test_total", "t").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "iqpaths_test_total 1") {
		t.Fatalf("exposition wrong:\n%s", sb.String())
	}
}
