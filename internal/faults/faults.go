// Package faults is the deterministic fault-injection layer for simnet
// overlays: scripted schedules of link failures, capacity degradation,
// loss-probability storms, and periodic flapping, applied at exact virtual
// ticks. The paper's title promises predictable streams across *dynamic*
// overlays; this package supplies the dynamics beyond smooth bandwidth
// regimes — the abrupt CDF shifts that exercise PGOS's "CDF changes
// dramatically" remap trigger (Fig. 7) and the §5.2.2 blocked-path
// exponential backoff.
//
// Determinism contract: a Schedule is pure data (tick, link, kind, value).
// Scenario.Apply mutates link state as a pure function of the schedule and
// the tick it is called with — it draws no randomness and reads no clocks,
// so a run with a fixed simnet seed and a fixed schedule is bit-for-bit
// reproducible. Fault events do perturb the emulator's loss draws (a loss
// storm consumes RNG samples per transmitted packet), but that stream is
// itself seeded, so reproducibility holds end to end.
package faults

import (
	"fmt"
	"sort"

	"iqpaths/internal/simnet"
	"iqpaths/internal/telemetry"
)

// Kind enumerates the fault actions a schedule can apply to a link.
type Kind uint8

const (
	// LinkDown forces the link's capacity to zero; queued and in-flight
	// packets are preserved (the hop stalls, it does not vanish).
	LinkDown Kind = iota
	// LinkUp restores a downed link.
	LinkUp
	// CapacityScale multiplies the configured capacity by Event.Value
	// (1 restores full capacity, 0.25 models a degraded hop).
	CapacityScale
	// LossProb sets the per-packet loss probability to Event.Value
	// (a loss storm; restore by scheduling the baseline value).
	LossProb
)

// String names the kind for telemetry labels and trace events.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link_down"
	case LinkUp:
		return "link_up"
	case CapacityScale:
		return "capacity_scale"
	case LossProb:
		return "loss_prob"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Event is one scripted state change: at virtual tick AtTick, apply Kind
// with Value to the named link.
type Event struct {
	AtTick int64
	Link   string
	Kind   Kind
	Value  float64
}

// Schedule is a fault script: a list of events, not necessarily ordered.
// Schedules compose by concatenation (see Compose); Scenario sorts them
// stably by tick, so same-tick events apply in script order.
type Schedule []Event

// Outage scripts a hard link failure on [fromTick, toTick): down at
// fromTick, restored at toTick.
func Outage(link string, fromTick, toTick int64) Schedule {
	return Schedule{
		{AtTick: fromTick, Link: link, Kind: LinkDown},
		{AtTick: toTick, Link: link, Kind: LinkUp},
	}
}

// LossStorm scripts a loss-probability spike to prob on [fromTick,
// toTick), restoring baseline at toTick.
func LossStorm(link string, fromTick, toTick int64, prob, baseline float64) Schedule {
	return Schedule{
		{AtTick: fromTick, Link: link, Kind: LossProb, Value: prob},
		{AtTick: toTick, Link: link, Kind: LossProb, Value: baseline},
	}
}

// Flap scripts cycles repetitions of (down for downTicks, up for upTicks)
// starting at startTick — the periodic flapping that defeats schedulers
// with long-memory mean predictors.
func Flap(link string, startTick, downTicks, upTicks int64, cycles int) Schedule {
	var s Schedule
	t := startTick
	for i := 0; i < cycles; i++ {
		s = append(s,
			Event{AtTick: t, Link: link, Kind: LinkDown},
			Event{AtTick: t + downTicks, Link: link, Kind: LinkUp},
		)
		t += downTicks + upTicks
	}
	return s
}

// CorrelatedOutage scripts a simultaneous failure of several links on
// [fromTick, toTick) — a shared-bottleneck or fate-sharing event.
// testonly: experiment's TestFaultsDriveBlockedPathBackoff scripts a
// both-paths outage with it.
func CorrelatedOutage(links []string, fromTick, toTick int64) Schedule {
	var s Schedule
	for _, l := range links {
		s = append(s, Outage(l, fromTick, toTick)...)
	}
	return s
}

// Compose concatenates schedules into one script.
func Compose(parts ...Schedule) Schedule {
	var s Schedule
	for _, p := range parts {
		s = append(s, p...)
	}
	return s
}

// Scenario binds a Schedule to the concrete links of a network and plays
// it forward. Call Apply(tick) once per tick before Network.Step; events
// with AtTick ≤ tick that have not fired yet are applied in order.
// Scenario is not safe for concurrent use (the emulator's event loop owns
// it, like every other simnet structure).
type Scenario struct {
	name   string
	events []Event // stable-sorted by AtTick
	next   int
	links  map[string]*simnet.Link
	down   map[string]bool

	applied uint64
	tracer  *telemetry.Tracer
	mEvents map[Kind]*telemetry.Counter
	mDown   *telemetry.Gauge
}

// NewScenario validates the schedule against net's topology (every named
// link must exist) and returns a playable scenario.
func NewScenario(name string, net *simnet.Network, sched Schedule) (*Scenario, error) {
	s := &Scenario{
		name:   name,
		events: append([]Event(nil), sched...),
		links:  map[string]*simnet.Link{},
		down:   map[string]bool{},
	}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].AtTick < s.events[j].AtTick })
	for _, e := range s.events {
		if _, ok := s.links[e.Link]; ok {
			continue
		}
		l := net.Link(e.Link)
		if l == nil {
			return nil, fmt.Errorf("faults: scenario %q references unknown link %q", name, e.Link)
		}
		s.links[e.Link] = l
	}
	return s, nil
}

// SetTelemetry attaches fault counters (iqpaths_faults_events_total per
// kind), a links-down gauge, and per-event trace records. Either argument
// may be nil.
func (s *Scenario) SetTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) {
	s.tracer = tracer
	if reg == nil {
		s.mEvents, s.mDown = nil, nil
		return
	}
	s.mEvents = map[Kind]*telemetry.Counter{}
	for _, k := range []Kind{LinkDown, LinkUp, CapacityScale, LossProb} {
		s.mEvents[k] = reg.Counter("iqpaths_faults_events_total",
			"Fault-injection events applied to the emulated topology.", "kind", k.String())
	}
	s.mDown = reg.Gauge("iqpaths_faults_links_down", "Links currently forced down by fault injection.")
}

// Apply fires every not-yet-applied event with AtTick ≤ tick, in schedule
// order, and returns how many fired.
func (s *Scenario) Apply(tick int64) int {
	fired := 0
	for s.next < len(s.events) && s.events[s.next].AtTick <= tick {
		e := s.events[s.next]
		s.next++
		fired++
		s.applied++
		l := s.links[e.Link]
		switch e.Kind {
		case LinkDown:
			l.SetDown(true)
			s.down[e.Link] = true
		case LinkUp:
			l.SetDown(false)
			delete(s.down, e.Link)
		case CapacityScale:
			l.SetCapacityScale(e.Value)
		case LossProb:
			l.SetLossProb(e.Value)
		}
		if s.mEvents != nil {
			s.mEvents[e.Kind].Inc()
			s.mDown.Set(float64(len(s.down)))
		}
		if s.tracer != nil {
			s.tracer.Emit("fault:"+e.Kind.String(), "", e.Link, e.Value)
		}
	}
	return fired
}

// Applied returns the number of events fired so far.
func (s *Scenario) Applied() uint64 { return s.applied }
