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
	// FPS is the frame rate (default 30).
	FPS float64
	// GOP is the group-of-pictures length: 1 I frame per GOP (default 12).
	GOP int
	// BaseMbps is the base layer's nominal rate (default 2).
	BaseMbps float64
	// EnhMbps are the enhancement layers' nominal rates (default {4, 8}).
	EnhMbps []float64
	// IFrameBoost multiplies an I frame's size relative to the GOP
	// average (default 2.5; P/B frames shrink to keep the rate).
	IFrameBoost float64
	// VBRSigma is the per-frame lognormal-ish size jitter (default 0.2).
	VBRSigma float64
	// SceneChangeProb is the per-frame probability of a scene change,
	// which doubles that frame's size across all layers (default 0.01).
	SceneChangeProb float64
	// DeadlineFrames is the playout deadline in frame periods: a frame
	// emitted at t must fully arrive by t + DeadlineFrames/FPS
	// (default 8 — a ~270 ms playout buffer at 30 fps).
	DeadlineFrames int
}

func (c *Config) fillDefaults() {
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.GOP <= 0 {
		c.GOP = 12
	}
	if c.BaseMbps <= 0 {
		c.BaseMbps = 2
	}
	if c.EnhMbps == nil {
		c.EnhMbps = []float64{4, 8}
	}
	if c.IFrameBoost <= 0 {
		c.IFrameBoost = 2.5
	}
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
	mk(0, "base", cfg.BaseMbps, stream.Probabilistic, 0.99)
	for i, r := range cfg.EnhMbps {
		if i == len(cfg.EnhMbps)-1 {
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

// EmitTick returns the tick a frame was emitted at.
func (s *Source) EmitTick(frame uint64) int64 { return s.emitTicks[frame] }

// DeadlineTicks returns the playout deadline in ticks after emission.
func (s *Source) DeadlineTicks() int64 {
	return int64(float64(s.cfg.DeadlineFrames) / s.cfg.FPS / s.net.TickSeconds())
}

// Tick emits any frames due at the current virtual time.
func (s *Source) Tick() {
	now := s.net.Now()
	period := 1 / s.cfg.FPS
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
	gopPos := int((frame - 1) % uint64(s.cfg.GOP))
	mult := 1.0
	if gopPos == 0 {
		mult = s.cfg.IFrameBoost
	} else {
		// P/B frames shrink so the GOP still averages the nominal rate.
		mult = (float64(s.cfg.GOP) - s.cfg.IFrameBoost) / float64(s.cfg.GOP-1)
	}
	mult *= 1 + s.rng.NormFloat64()*s.cfg.VBRSigma
	if s.rng.Float64() < s.cfg.SceneChangeProb {
		mult *= 2
	}
	if mult < 0.1 {
		mult = 0.1
	}

	rates := append([]float64{s.cfg.BaseMbps}, s.cfg.EnhMbps...)
	counts := make([]int, len(s.streams))
	for layer, st := range s.streams {
		bits := rates[layer] * 1e6 / s.cfg.FPS * mult
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
