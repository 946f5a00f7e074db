package live

import (
	"context"
	"time"
)

// TrainPlanner decides which paths emit a dispersion train each probing
// round. PlanTrains receives the per-round budget (k ≤ 0 means "the
// planner's own default") and returns path indexes into the ProberSet's
// prober slice. bwest.Estimator implements it: with its information-gain
// planner it probes where the posterior is least certain, with its
// round-robin planner at a budget of the path count it reproduces the
// everything-on-a-timer sweep.
type TrainPlanner interface {
	PlanTrains(k int) []int
}

// ProberSetConfig tunes a ProberSet.
type ProberSetConfig struct {
	// Budget is the per-round train budget passed to the planner
	// (0 = planner default).
	Budget int
}

// ProberSet drives a set of per-path Probers from one planning loop, the
// only loop that sends live trains: each round it asks the TrainPlanner
// which paths deserve a train and emits only those. With a bwest
// round-robin planner and budget = path count it trains every path every
// round, as one timer per path would (pinned by the regression test);
// with a bwest information-gain planner the same loop concentrates
// trains where posterior uncertainty is highest.
// Passive samples stay per-path and per-round: they come free from the
// connections' own counters, so there is no reason to ration them.
type ProberSet struct {
	cfg     ProberSetConfig
	clock   Clock
	probers []*Prober
	planner TrainPlanner
}

// NewProberSet builds a planning loop over probers, which share one
// ProberConfig. planner must not be nil.
func NewProberSet(cfg ProberSetConfig, clock Clock, probers []*Prober, planner TrainPlanner) *ProberSet {
	if len(probers) == 0 {
		panic("live: ProberSet needs probers")
	}
	if planner == nil {
		panic("live: ProberSet needs a planner")
	}
	if clock == nil {
		clock = NewWallClock()
	}
	return &ProberSet{cfg: cfg, clock: clock, probers: probers, planner: planner}
}

// ProbeRound runs one planning round: plan, emit the planned trains,
// then take a passive sample on every path. Returns the number of
// trains emitted (paths whose connection has died are skipped).
func (ps *ProberSet) ProbeRound() int {
	plan := ps.planner.PlanTrains(ps.cfg.Budget)
	emitted := 0
	for _, i := range plan {
		if i < 0 || i >= len(ps.probers) {
			continue
		}
		if err := ps.probers[i].ProbeOnce(); err == nil {
			emitted++
		}
	}
	for _, p := range ps.probers {
		p.SamplePassive()
	}
	return emitted
}

// Run rounds every ProberConfig.IntervalSec of its probers, which share
// one config, until ctx is done.
func (ps *ProberSet) Run(ctx context.Context) {
	interval := time.Duration(ps.probers[0].cfg.IntervalSec * float64(time.Second))
	for {
		select {
		case <-ctx.Done():
			return
		case <-ps.clock.After(interval):
		}
		ps.ProbeRound()
	}
}
