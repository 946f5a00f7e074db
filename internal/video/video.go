// Package video models the paper's third application domain (§1, §2, §6):
// MPEG-4 fine-grained-scalable (FGS) video streaming over IQ-Paths. A
// Source emits a variable-bit-rate GOP structure (large I frames, smaller
// P/B frames, scene-change bursts) split into a base layer and FGS
// enhancement layers, each an IQ-Paths stream with its own utility
// specification; a Receiver reconstructs frames from delivered packets
// against their playout deadlines and reports playback quality — the
// smoothness improvement the paper attributes to scheduling layers by
// guarantee level rather than suppressing network noise.
package video

import (
	"math/rand"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// Config shapes the encoded stream.
type Config struct {
	// VBRSigma is the per-frame lognormal-ish size jitter (default 0.2).
	// knob: TestSourceRateAndGOP and TestFGSPartialCredit set it near 0
	// for frames of predictable size.
	VBRSigma float64
	// SceneChangeProb is the per-frame probability of a scene change,
	// which doubles that frame's size across all layers (default 0.01).
	// knob: TestSourceRateAndGOP sets it near 0 so no frame doubles.
	SceneChangeProb float64
	// DeadlineFrames is the playout deadline in frame periods: a frame
	// emitted at t must fully arrive by t + DeadlineFrames/fps
	// (default 8 — a ~270 ms playout buffer at 30 fps).
	// knob: the receiver tests (TestReceiverScoresPerfectDelivery and
	// others) shorten it to 1–2 frames so frames fall due quickly.
	DeadlineFrames int
}

// The encoded stream's shape: 30 fps, one I frame per 12-frame GOP at
// 2.5× the GOP-average size (P/B frames shrink to keep the rate), a
// 2 Mbps base layer and enhancement layers of 4 and 8 Mbps.
const (
	fps         = 30.0
	gop         = 12
	iFrameBoost = 2.5
	baseMbps    = 2.0
)

var enhMbps = []float64{4, 8}

func (c *Config) fillDefaults() {
	if c.VBRSigma <= 0 {
		c.VBRSigma = 0.2
	}
	if c.SceneChangeProb <= 0 {
		c.SceneChangeProb = 0.01
	}
	if c.DeadlineFrames <= 0 {
		c.DeadlineFrames = 8
	}
}

// Source emits layered VBR frames into per-layer streams.
type Source struct {
	cfg     Config
	net     *simnet.Network
	rng     *rand.Rand
	streams []*stream.Stream
	// frame bookkeeping
	frame     uint64
	nextEmit  float64
	expected  map[uint64][]int // packets per layer for each emitted frame
	emitTicks map[uint64]int64
}

// NewSource builds the layered source. Layer streams get IDs 0..L:
// layer 0 (base) carries a 99 % probabilistic guarantee at its nominal
// rate; intermediate enhancement layers 95 %; the last layer best-effort.
func NewSource(net *simnet.Network, cfg Config, rng *rand.Rand) *Source {
	cfg.fillDefaults()
	s := &Source{
		cfg:       cfg,
		net:       net,
		rng:       rng,
		expected:  map[uint64][]int{},
		emitTicks: map[uint64]int64{},
	}
	mk := func(id int, name string, rate float64, kind stream.GuaranteeKind, p float64) {
		s.streams = append(s.streams, stream.New(id, stream.Spec{
			Name: name, Kind: kind, RequiredMbps: rate, Probability: p, Weight: rate,
		}))
	}
	mk(0, "base", baseMbps, stream.Probabilistic, 0.99)
	for i, r := range enhMbps {
		if i == len(enhMbps)-1 {
			mk(i+1, layerName(i+1), 0, stream.BestEffort, 0)
			// Best-effort layers keep their nominal rate as FQ weight.
			s.streams[i+1].Weight = r
		} else {
			mk(i+1, layerName(i+1), r, stream.Probabilistic, 0.95)
		}
	}
	return s
}

func layerName(i int) string {
	return "enh" + string(rune('0'+i))
}

// Streams returns the layer streams in layer order (0 = base).
func (s *Source) Streams() []*stream.Stream { return s.streams }

// Layers returns the number of layers.
func (s *Source) Layers() int { return len(s.streams) }

// Frames returns the number of frames emitted.
func (s *Source) Frames() uint64 { return s.frame }

// ExpectedPackets returns how many packets each layer of the given frame
// fragments into (nil for unknown frames).
func (s *Source) ExpectedPackets(frame uint64) []int { return s.expected[frame] }

// DeadlineTicks returns the playout deadline in ticks after emission.
func (s *Source) DeadlineTicks() int64 {
	return int64(float64(s.cfg.DeadlineFrames) / fps / s.net.TickSeconds())
}

// Tick emits any frames due at the current virtual time.
func (s *Source) Tick() {
	now := s.net.Now()
	period := 1 / fps
	for s.nextEmit <= now {
		s.emitFrame()
		s.nextEmit += period
	}
}

func (s *Source) emitFrame() {
	s.frame++
	frame := s.frame
	s.emitTicks[frame] = s.net.Tick()
	deadline := s.net.Tick() + s.DeadlineTicks()

	// Size multiplier: GOP position + VBR jitter + scene changes.
	gopPos := int((frame - 1) % uint64(gop))
	mult := 1.0
	if gopPos == 0 {
		mult = iFrameBoost
	} else {
		// P/B frames shrink so the GOP still averages the nominal rate.
		mult = (float64(gop) - iFrameBoost) / float64(gop-1)
	}
	mult *= 1 + s.rng.NormFloat64()*s.cfg.VBRSigma
	if s.rng.Float64() < s.cfg.SceneChangeProb {
		mult *= 2
	}
	if mult < 0.1 {
		mult = 0.1
	}

	rates := append([]float64{baseMbps}, enhMbps...)
	counts := make([]int, len(s.streams))
	for layer, st := range s.streams {
		bits := rates[layer] * 1e6 / fps * mult
		n := 0
		for bits > 0 {
			sz := st.PacketBits
			if bits < sz {
				sz = bits
			}
			p := s.net.NewPacket(st.ID, sz)
			p.Frame = frame
			p.Deadline = deadline
			st.Push(p)
			bits -= sz
			n++
		}
		counts[layer] = n
	}
	s.expected[frame] = counts
}

// Forget drops bookkeeping for frames at or before the given frame number
// (call periodically from long runs to bound memory).
func (s *Source) Forget(before uint64) {
	// maporder: deletes each old frame; the order cannot matter.
	for f := range s.expected {
		if f <= before {
			delete(s.expected, f)
			delete(s.emitTicks, f)
		}
	}
}
