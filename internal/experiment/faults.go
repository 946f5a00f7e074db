package experiment

import (
	"fmt"
	"math"

	"iqpaths/internal/faults"
	"iqpaths/internal/telemetry"
)

// faultTickSec is the emulab testbed tick the fault timeline is scripted
// against (RunSmartPointer always builds the testbed with the default tick).
const faultTickSec = 0.01

// FaultTimeline records, in seconds of virtual time from run start (warmup
// included), when each phase of the default fault script plays. All three
// phases hit PathA's bottleneck hop: WFQ is pinned to PathA, so the script
// separates schedulers that can migrate load from one that cannot, and —
// among the multi-path schedulers — percentile-tracking remap (PGOS) from a
// long-memory mean tracker (MSFQ).
type FaultTimeline struct {
	Link string // the targeted link ("N-3:N-5", PathA's bottleneck)

	OutageStartSec float64 // hard failure: capacity → 0
	OutageEndSec   float64

	StormStartSec float64 // loss storm: per-packet drop probability spike
	StormEndSec   float64
	StormProb     float64

	FlapStartSec float64 // periodic down/up cycles
	FlapDownSec  float64
	FlapUpSec    float64
	FlapCycles   int
}

// DefaultFaultSchedule scripts the canonical three-phase fault scenario
// against PathA's bottleneck link, scaled to the run's warmup/duration so
// short test runs and full paper runs play the same shape. Phases (as
// fractions of the measured duration D after warmup W):
//
//	outage  [W+0.15D, W+0.40D)  hard failure, the Fig. 7 remap trigger
//	storm   [W+0.55D, W+0.70D)  30 % loss, CDF shifts without going dark
//	flap    [W+0.80D, ...)      3 × (down 0.02D, up 0.03D)
//
// The returned timeline carries the same instants in seconds for recovery
// accounting and rendering.
func DefaultFaultSchedule(cfg RunConfig) (faults.Schedule, FaultTimeline) {
	cfg.fillDefaults()
	w, d := cfg.WarmupSec, cfg.DurationSec
	tl := FaultTimeline{
		Link:           emulabPathABottleneck,
		OutageStartSec: w + 0.15*d,
		OutageEndSec:   w + 0.40*d,
		StormStartSec:  w + 0.55*d,
		StormEndSec:    w + 0.70*d,
		StormProb:      0.30,
		FlapStartSec:   w + 0.80*d,
		FlapDownSec:    0.02 * d,
		FlapUpSec:      0.03 * d,
		FlapCycles:     3,
	}
	tick := func(sec float64) int64 { return int64(sec / faultTickSec) }
	sched := faults.Compose(
		faults.Outage(tl.Link, tick(tl.OutageStartSec), tick(tl.OutageEndSec)),
		faults.LossStorm(tl.Link, tick(tl.StormStartSec), tick(tl.StormEndSec), tl.StormProb, 0),
		faults.Flap(tl.Link, tick(tl.FlapStartSec), tick(tl.FlapDownSec), tick(tl.FlapUpSec), tl.FlapCycles),
	)
	return sched, tl
}

// emulabPathABottleneck is the Fig. 8 name of PathA's bottleneck hop.
const emulabPathABottleneck = "N-3:N-5"

// FaultStreamRow is one stream's realised guarantee under a fault run.
type FaultStreamRow struct {
	Name            string
	RequiredMbps    float64
	Windows         int
	ViolatedWindows int
	ViolatedFrac    float64
	MeanShortfall   float64 // packets per window (empirical E[Z])
	DeliveredMbps   float64
}

// faultStreamRows condenses the accountant's per-stream records.
func faultStreamRows(accounts []telemetry.StreamAccount) []FaultStreamRow {
	var rows []FaultStreamRow
	for _, a := range accounts {
		row := FaultStreamRow{
			Name:            a.Name,
			RequiredMbps:    a.RequiredMbps,
			Windows:         a.Windows,
			ViolatedWindows: a.ViolatedWindows,
			MeanShortfall:   a.MeanShortfall,
			DeliveredMbps:   a.DeliveredMbps,
		}
		if a.Windows > 0 {
			row.ViolatedFrac = float64(a.ViolatedWindows) / float64(a.Windows)
		}
		rows = append(rows, row)
	}
	return rows
}

// FaultRun is one algorithm's behaviour under the shared fault script.
type FaultRun struct {
	Algorithm string
	// FaultEvents confirms the script actually played (identical across
	// algorithms by construction).
	FaultEvents uint64
	// Remaps / SendFailures are PGOS's counters (zero for WFQ/MSFQ).
	Remaps       uint64
	SendFailures uint64
	// RemapTimes are the virtual times of mapping rebuilds (PGOS only).
	RemapTimes []float64
	// RecoveryWindows counts scheduling windows from outage onset to the
	// first remap at or after it — the paper's "how fast does the scheduler
	// react to a dramatic CDF change" number. −1 when the scheduler never
	// remapped after the onset (WFQ/MSFQ always; PGOS only on failure).
	RecoveryWindows int
	Streams         []FaultStreamRow
}

// FaultsResult is the WFQ/MSFQ/PGOS comparison under one fault script.
type FaultsResult struct {
	Timeline FaultTimeline
	// Critical names the stream whose violated-window fraction is the
	// headline comparison (the tightest guaranteed stream, Atom).
	Critical string
	Runs     []FaultRun
}

// recoveryWindows converts the first remap at or after onsetSec into a count
// of TwSec scheduling windows (minimum 1: a remap in the same window as the
// onset still costs that window).
func recoveryWindows(remapTimes []float64, onsetSec, twSec float64) int {
	for _, t := range remapTimes {
		if t >= onsetSec {
			n := int(math.Ceil((t - onsetSec) / twSec))
			if n < 1 {
				n = 1
			}
			return n
		}
	}
	return -1
}

// RunFaults plays the identical fault script against the SmartPointer
// workload under WFQ, MSFQ, and PGOS and reports recovery time and
// violated-window fractions. With cfg.FaultSchedule empty the default
// three-phase script is used; a caller-supplied schedule is passed through
// unchanged (its timeline fields are zero except the targeted link is
// unknown, so RecoveryWindows is measured from run start).
func RunFaults(cfg RunConfig) (*FaultsResult, error) {
	cfg.fillDefaults()
	sched := cfg.FaultSchedule
	var tl FaultTimeline
	if len(sched) == 0 {
		sched, tl = DefaultFaultSchedule(cfg)
	}
	out := &FaultsResult{Timeline: tl, Critical: "Atom"}
	for _, alg := range []string{AlgWFQ, AlgMSFQ, AlgPGOS} {
		c := cfg
		c.Algorithm = alg
		c.FaultSchedule = sched
		res, err := RunSmartPointer(c)
		if err != nil {
			return nil, fmt.Errorf("experiment: fault run %s: %w", alg, err)
		}
		fr := FaultRun{
			Algorithm:   alg,
			FaultEvents: res.FaultEvents,
			RemapTimes:  res.RemapTimes,
		}
		if res.PGOSStats != nil {
			fr.Remaps = res.PGOSStats.Remaps
			fr.SendFailures = res.PGOSStats.SendFailures
		}
		fr.RecoveryWindows = recoveryWindows(res.RemapTimes, tl.OutageStartSec, c.TwSec)
		fr.Streams = faultStreamRows(res.Accounts)
		out.Runs = append(out.Runs, fr)
	}
	return out, nil
}
