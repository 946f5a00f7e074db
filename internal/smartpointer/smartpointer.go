// Package smartpointer models the SmartPointer distributed-collaboration
// workload (§6.1): a molecular-dynamics visualization server emitting three
// streams at 25 frames/s to remote clients —
//
//   - Atom: all atom positions in the observer's view (critical,
//     3.249 Mbps required with 95 % predictive guarantee);
//   - Bond1: bonds inside the view volume (critical, 22.148 Mbps @ 95 %);
//   - Bond2: bonds outside the current view (non-critical best-effort,
//     useful when the observer swings the viewing angle).
//
// The frame payloads are synthesized MD state (the scheduler sees only
// sizes and deadlines, which is what the paper's evaluation depends on).
package smartpointer

import (
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// FPS is the collaboration frame rate required for effective interaction.
const FPS = 25

// Paper §6.1 utility requirements.
const (
	AtomMbps  = 3.249
	Bond1Mbps = 22.148
	// Bond2Mbps is the offered load of the non-critical stream; the paper
	// does not fix it — it reports Bond2 receiving 20–40 Mbps of leftover
	// bandwidth with the three streams together pushing the testbed close
	// to saturation, which a 60 Mbps offered load reproduces on the Fig. 8
	// testbed (total demand ≈ 85 Mbps against ~110 Mbps mean, dipping
	// below demand during congestion episodes).
	Bond2Mbps = 60
)

// Workload is the instantiated SmartPointer server side.
type Workload struct {
	Atom, Bond1, Bond2 *stream.Stream
	sources            []*stream.FrameSource
}

// New builds the three streams and their frame sources on net.
// Stream IDs are 0 (Atom), 1 (Bond1), 2 (Bond2).
func New(net *simnet.Network) *Workload {
	atom := stream.New(0, stream.Spec{
		Name:         "Atom",
		Kind:         stream.Probabilistic,
		RequiredMbps: AtomMbps,
		Probability:  0.95,
	})
	bond1 := stream.New(1, stream.Spec{
		Name:         "Bond1",
		Kind:         stream.Probabilistic,
		RequiredMbps: Bond1Mbps,
		Probability:  0.95,
	})
	bond2 := stream.New(2, stream.Spec{
		Name: "Bond2",
		Kind: stream.BestEffort,
		// MSFQ/WFQ need a weight for the best-effort stream; its offered
		// rate is the natural proportion.
		Weight: Bond2Mbps,
	})
	w := &Workload{Atom: atom, Bond1: bond1, Bond2: bond2}
	for _, s := range []*stream.Stream{atom, bond1, bond2} {
		var mbps float64
		switch s.ID {
		case 0:
			mbps = AtomMbps
		case 1:
			mbps = Bond1Mbps
		default:
			mbps = Bond2Mbps
		}
		frameBytes := mbps * 1e6 / 8 / FPS
		w.sources = append(w.sources, stream.NewFrameSource(net, s, FPS, frameBytes))
	}
	return w
}

// Streams returns the three streams in ID order.
func (w *Workload) Streams() []*stream.Stream {
	return []*stream.Stream{w.Atom, w.Bond1, w.Bond2}
}

// Tick generates any frames due this tick. Call before scheduling.
func (w *Workload) Tick() {
	for _, src := range w.sources {
		src.Tick()
	}
}

// PacketsPerFrame returns how many packets each stream's frame fragments
// into, for frame-completion detection at the sink.
func (w *Workload) PacketsPerFrame(streamID int) int {
	var mbps float64
	switch streamID {
	case 0:
		mbps = AtomMbps
	case 1:
		mbps = Bond1Mbps
	default:
		mbps = Bond2Mbps
	}
	frameBits := mbps * 1e6 / FPS
	pkts := int(frameBits / w.Streams()[streamID].PacketBits)
	if float64(pkts)*w.Streams()[streamID].PacketBits < frameBits {
		pkts++
	}
	return pkts
}
