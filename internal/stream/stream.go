// Package stream models application data streams and their utility
// specifications (§5.1): a required bandwidth with a guarantee probability
// (probabilistic guarantee), a bound on expected per-window violations
// (violation-bound guarantee), or best-effort; plus the Window-Constraint
// form (x packets serviced out of every y arrivals) the paper inherits
// from DWCS. Streams own bounded FIFO packet queues that schedulers drain.
package stream

import (
	"fmt"

	"iqpaths/internal/simnet"
)

// GuaranteeKind selects the utility specification form.
type GuaranteeKind int

// Guarantee kinds.
const (
	// BestEffort streams take whatever bandwidth is left.
	BestEffort GuaranteeKind = iota
	// Probabilistic streams require RequiredMbps with probability
	// Probability (e.g. 95 % of scheduling windows).
	Probabilistic
	// ViolationBound streams bound the expected number of packets
	// missing their deadline per scheduling window (MaxViolations).
	ViolationBound
)

// String renders the kind.
func (k GuaranteeKind) String() string {
	switch k {
	case BestEffort:
		return "best-effort"
	case Probabilistic:
		return "probabilistic"
	case ViolationBound:
		return "violation-bound"
	}
	return fmt.Sprintf("GuaranteeKind(%d)", int(k))
}

// Spec is a stream's utility specification.
type Spec struct {
	// Name labels the stream in results (e.g. "Atom", "Bond1", "DT1").
	Name string
	// Kind selects the guarantee form.
	Kind GuaranteeKind
	// RequiredMbps is the bandwidth target (Probabilistic and
	// ViolationBound kinds).
	RequiredMbps float64
	// Probability is the fraction of scheduling windows in which the
	// stream must receive RequiredMbps (Probabilistic kind), e.g. 0.95.
	Probability float64
	// MaxViolations bounds E[Z], the expected deadline misses per
	// scheduling window (ViolationBound kind).
	MaxViolations float64
	// WindowX/WindowY express the DWCS window constraint: at least
	// WindowX of every WindowY packets must be serviced in the window.
	// Zero values mean the constraint is derived from RequiredMbps.
	WindowX, WindowY int
	// PacketBits is the stream's packet size (default 12000 = 1500 B).
	PacketBits float64
	// MaxLossRate, when positive, excludes paths whose measured loss rate
	// exceeds it from this stream's mapping (loss-rate service objective).
	MaxLossRate float64
	// MaxRTT, when positive, excludes paths whose measured mean RTT (in
	// seconds) exceeds it — control traffic typically sets this.
	MaxRTT float64
	// Weight is the fair-queuing weight used by the WFQ/MSFQ baselines;
	// zero derives it from RequiredMbps (or 1 for best-effort).
	Weight float64
	// QueueLimit bounds the stream's backlog in packets (default 20000);
	// overflow drops the newest packets and is counted.
	QueueLimit int
}

func (s Spec) String() string {
	switch s.Kind {
	case Probabilistic:
		return fmt.Sprintf("%s{%.3f Mbps @ %.0f%%}", s.Name, s.RequiredMbps, s.Probability*100)
	case ViolationBound:
		return fmt.Sprintf("%s{%.3f Mbps, E[Z]<=%.3f}", s.Name, s.RequiredMbps, s.MaxViolations)
	default:
		return fmt.Sprintf("%s{best-effort}", s.Name)
	}
}

// Stream is a live stream: a spec plus its packet backlog and counters.
type Stream struct {
	// ID is the stream's index within its scheduler.
	ID int
	Spec

	// queue[head:] is the backlog; head is 0 whenever it is empty (Pop
	// rewinds a drained queue), so the backing array follows the live
	// depth.
	queue []*simnet.Packet
	head  int

	// observer, when set, is invoked with the stream's ID after every
	// successful queue mutation (Push, Pop, PushFront). PGOS uses it to
	// keep its unscheduled-traffic heap keyed to live queue state.
	observer func(id int)

	// Counters.
	Enqueued   uint64
	Dropped    uint64 // arrivals refused because the backlog was full
	Dequeued   uint64
	BitsQueued float64
}

// New creates a stream with the given ID and spec, applying defaults.
func New(id int, spec Spec) *Stream {
	return &Stream{ID: id, Spec: spec.WithDefaults()}
}

// WithDefaults returns the spec with New's defaults applied (packet size,
// queue limit, weight, and a probabilistic spec's probability).
func (s Spec) WithDefaults() Spec {
	if s.PacketBits <= 0 {
		s.PacketBits = 12000
	}
	if s.QueueLimit <= 0 {
		s.QueueLimit = 20000
	}
	if s.Weight <= 0 {
		if s.RequiredMbps > 0 {
			s.Weight = s.RequiredMbps
		} else {
			s.Weight = 1
		}
	}
	if s.Probability <= 0 && s.Kind == Probabilistic {
		s.Probability = 0.95
	}
	return s
}

// SetObserver installs fn as the stream's queue observer (nil removes
// it). At most one observer exists; a second scheduler installing its
// own would silently detach the first, so streams must not be shared
// between observer-installing schedulers.
func (s *Stream) SetObserver(fn func(id int)) { s.observer = fn }

// Len returns the number of queued packets.
func (s *Stream) Len() int { return len(s.queue) - s.head }

// Bits returns the number of queued bits.
func (s *Stream) Bits() float64 { return s.BitsQueued }

// Push appends a packet to the backlog; it returns false (and counts a
// drop) when the backlog is full.
func (s *Stream) Push(p *simnet.Packet) bool {
	if s.Len() >= s.QueueLimit {
		s.Dropped++
		return false
	}
	s.queue = append(s.queue, p)
	s.Enqueued++
	s.BitsQueued += p.Bits
	if s.observer != nil {
		s.observer(s.ID)
	}
	return true
}

// Peek returns the head packet without removing it, or nil when empty.
func (s *Stream) Peek() *simnet.Packet {
	if s.Len() == 0 {
		return nil
	}
	return s.queue[s.head]
}

// Pop removes and returns the head packet, or nil when empty.
func (s *Stream) Pop() *simnet.Packet {
	if s.Len() == 0 {
		return nil
	}
	p := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		// Drained: rewind, so the next Push reuses slot 0 rather than
		// growing the array. A stream holding 0–1 packets keeps a
		// one-slot array.
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head > 64 && s.head*2 >= len(s.queue) {
		// A backlog that never drains: compact. The copy moves at most
		// head elements after head pops, so Pop stays amortized O(1), and
		// the backing array plateaus near twice the peak queue depth —
		// which is what makes steady-state Push allocation-free.
		n := copy(s.queue, s.queue[s.head:])
		s.queue = s.queue[:n]
		s.head = 0
	}
	s.Dequeued++
	s.BitsQueued -= p.Bits
	if s.observer != nil {
		s.observer(s.ID)
	}
	return p
}

// PushFront returns a packet to the head of the queue — used when a
// transport refused a packet after it was popped, so ordering and
// accounting are preserved. It ignores the queue limit (the packet was
// already admitted once).
func (s *Stream) PushFront(p *simnet.Packet) {
	if s.head > 0 {
		s.head--
		s.queue[s.head] = p
	} else {
		s.queue = append(s.queue, nil)
		copy(s.queue[1:], s.queue)
		s.queue[0] = p
	}
	s.BitsQueued += p.Bits
	if s.Dequeued > 0 {
		s.Dequeued--
	}
	if s.observer != nil {
		s.observer(s.ID)
	}
}

// RequiredPacketsPerWindow returns x, the packets per scheduling window of
// twSec seconds needed to sustain RequiredMbps (rounded up), or the
// explicit WindowX when set.
func (s *Stream) RequiredPacketsPerWindow(twSec float64) int {
	if s.WindowX > 0 {
		return s.WindowX
	}
	if s.RequiredMbps <= 0 {
		return 0
	}
	bits := s.RequiredMbps * 1e6 * twSec
	x := int(bits / s.PacketBits)
	if float64(x)*s.PacketBits < bits {
		x++
	}
	return x
}

// WindowConstraintRatio returns x/y, the fraction of packets that must be
// serviced per window; streams without an explicit constraint report 1 for
// guaranteed kinds and 0 for best-effort. PGOS uses it for tie-breaking
// (Table 1: "equal deadlines, highest window constraint first").
func (s *Stream) WindowConstraintRatio() float64 {
	if s.WindowY > 0 {
		return float64(s.WindowX) / float64(s.WindowY)
	}
	if s.Kind == BestEffort {
		return 0
	}
	return 1
}
