package video

import (
	"fmt"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stats"
)

// Receiver reconstructs layered frames from delivered packets and scores
// playback: a frame *plays* when its base layer fully arrives by the
// playout deadline; its *quality* is the number of complete layers at
// that moment. FGS lets any prefix of an enhancement layer refine the
// picture, so partial enhancement layers count fractionally.
type Receiver struct {
	src *Source
	// got[frame][layer] counts received packets.
	got map[uint64][]int
	// next is the first frame not yet judged. Frames are numbered 1, 2, …
	// in emission order and their deadlines are monotone, so frames are
	// judged in frame order and each tick stops at the first one not due.
	next uint64

	// results
	framesPlayed uint64
	baseMisses   uint64
	qualities    []float64 // per played frame: layers of quality (fractional)
	lateness     []float64 // per played frame: base-completion ticks before deadline
}

// NewReceiver builds a receiver for the source's stream layout.
func NewReceiver(src *Source) *Receiver {
	return &Receiver{src: src, got: map[uint64][]int{}, next: 1}
}

// OnPacket records one delivered packet.
func (r *Receiver) OnPacket(p *simnet.Packet) {
	if p.Frame == 0 {
		return
	}
	g := r.got[p.Frame]
	if g == nil {
		g = make([]int, r.src.Layers())
		r.got[p.Frame] = g
	}
	if p.Stream >= 0 && p.Stream < len(g) {
		g[p.Stream]++
	}
}

// Tick scores any frames whose playout deadline falls at the current
// tick. Call once per network tick after collecting deliveries.
func (r *Receiver) Tick(now int64) {
	for ; r.next <= r.src.Frames(); r.next++ {
		frame := r.next
		emit, ok := r.src.emitTicks[frame]
		if ok && now < emit+r.src.DeadlineTicks() {
			return
		}
		exp := r.src.ExpectedPackets(frame)
		got := r.got[frame]
		if exp == nil { // forgotten before its deadline: never judged
			continue
		}
		if got == nil {
			got = make([]int, len(exp))
		}
		if exp[0] > 0 && got[0] < exp[0] {
			r.baseMisses++
			delete(r.got, frame)
			continue
		}
		r.framesPlayed++
		quality := 0.0
		for layer := range exp {
			if exp[layer] == 0 {
				continue
			}
			frac := float64(got[layer]) / float64(exp[layer])
			if frac > 1 {
				frac = 1
			}
			if layer == 0 {
				quality += frac // == 1 here
				continue
			}
			// FGS: a truncated enhancement layer still refines.
			quality += frac
		}
		r.qualities = append(r.qualities, quality)
		delete(r.got, frame)
	}
}

// Report summarizes playback.
type Report struct {
	FramesScored  uint64
	FramesPlayed  uint64
	BaseMissRate  float64
	MeanQuality   float64 // mean complete-layer count (fractional, FGS)
	QualityStdDev float64 // smoothness: lower = steadier picture
}

// Report computes the playback summary.
func (r *Receiver) Report() Report {
	scored := r.framesPlayed + r.baseMisses
	rep := Report{FramesScored: scored, FramesPlayed: r.framesPlayed}
	if scored > 0 {
		rep.BaseMissRate = float64(r.baseMisses) / float64(scored)
	}
	s := stats.Summarize(r.qualities)
	rep.MeanQuality = s.Mean
	rep.QualityStdDev = s.StdDev
	return rep
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("frames=%d played=%d baseMiss=%.4f quality=%.2f±%.2f",
		r.FramesScored, r.FramesPlayed, r.BaseMissRate, r.MeanQuality, r.QualityStdDev)
}
