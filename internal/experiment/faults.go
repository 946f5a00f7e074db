package experiment

import (
	"math"

	"iqpaths/internal/emulab"
	"iqpaths/internal/faults"
	"iqpaths/internal/telemetry"
)

// FaultTimeline records where the default fault script strikes and when
// its outage starts, in seconds of virtual time from run start (warmup
// included). All three phases hit PathA's bottleneck hop: WFQ is pinned to
// PathA, so the script separates schedulers that can migrate load from one
// that cannot, and — among the multi-path schedulers — percentile-tracking
// remap (PGOS) from a long-memory mean tracker (MSFQ).
type FaultTimeline struct {
	Link           string  // the targeted link ("N-3:N-5", PathA's bottleneck)
	OutageStartSec float64 // hard failure: capacity → 0
}

// DefaultFaultSchedule scripts the canonical three-phase fault scenario
// against PathA's bottleneck link, scaled to the run's warmup/duration so
// short test runs and full paper runs play the same shape. Phases (as
// fractions of the measured duration D after warmup W):
//
//	outage  [W+0.15D, W+0.40D)  hard failure, the Fig. 7 remap trigger
//	storm   [W+0.55D, W+0.70D)  30 % loss, CDF shifts without going dark
//	flap    [W+0.80D, ...)      3 × (down 0.02D, up 0.03D)
func DefaultFaultSchedule(cfg RunConfig) (faults.Schedule, FaultTimeline) {
	cfg.fillDefaults()
	w, d := cfg.WarmupSec, cfg.DurationSec
	tl := FaultTimeline{Link: "N-3:N-5", OutageStartSec: w + 0.15*d}
	tick := func(sec float64) int64 { return int64(sec / emulab.TickSeconds) }
	return faults.Compose(
		faults.Outage(tl.Link, tick(tl.OutageStartSec), tick(w+0.40*d)),
		faults.LossStorm(tl.Link, tick(w+0.55*d), tick(w+0.70*d), 0.30, 0),
		faults.Flap(tl.Link, tick(w+0.80*d), tick(0.02*d), tick(0.03*d), 3),
	), tl
}

// FaultRun is one algorithm's behaviour under the shared fault script:
// the fault events that played (alike under every arm by construction)
// and PGOS's mapping rebuilds (zero for WFQ/MSFQ).
type FaultRun struct {
	Algorithm           string
	FaultEvents, Remaps uint64
	// RecoveryWindows counts scheduling windows from outage onset to the
	// first remap at or after it — the paper's "how fast does the scheduler
	// react to a dramatic CDF change" number. −1 when the scheduler never
	// remapped after the onset (WFQ/MSFQ always; PGOS only on failure).
	RecoveryWindows int
	Accounts        []telemetry.StreamAccount
}

// recoveryWindows converts the first remap at or after onsetSec into a count
// of TwSec scheduling windows (minimum 1: a remap in the same window as the
// onset still costs that window).
func recoveryWindows(remapTimes []float64, onsetSec, twSec float64) int {
	for _, t := range remapTimes {
		if t >= onsetSec {
			return max(1, int(math.Ceil((t-onsetSec)/twSec)))
		}
	}
	return -1
}

// faultScenario plays the default three-phase fault script against the
// SmartPointer workload; its figure compares WFQ, MSFQ and PGOS.
var faultScenario = Scenario{Topology: fig8, Workload: SmartPointer.Workload, Faults: DefaultFaultSchedule}

// faultsOf condenses the fault figure's runs under p.Run: recovery time
// from the outage onset and the realised guarantees.
func faultsOf(cfg RunConfig, results []Result) []FaultRun {
	cfg.fillDefaults()
	_, tl := DefaultFaultSchedule(cfg)
	var out []FaultRun
	for _, res := range results {
		fr := FaultRun{
			Algorithm:       res.Algorithm,
			FaultEvents:     res.FaultEvents,
			RecoveryWindows: recoveryWindows(res.RemapTimes, tl.OutageStartSec, cfg.TwSec),
			Accounts:        res.Telemetry.Streams,
		}
		if res.PGOSStats != nil {
			fr.Remaps = res.PGOSStats.Remaps
		}
		out = append(out, fr)
	}
	return out
}
