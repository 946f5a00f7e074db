package experiment

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/video"
)

// videoScenario streams a 3-layer FGS video (2 Mbps base @99 %, 4 Mbps
// enh1 @95 %, 8 Mbps enh2 best-effort) over the Fig. 8 testbed, scoring
// playback at an 8-frame playout deadline — the paper's multimedia
// application, for which the technical report shows "substantially
// improved service level QoS" under IQ-Paths.
var videoScenario = Scenario{Topology: fig8, Workload: Workload{PaceLimit: interactivePace, New: newVideo}}

// videoPlayback is the video workload with its playback receiver.
type videoPlayback struct {
	sources
	rcv *video.Receiver
}

func newVideo(h *Harness, cfg RunConfig) workload {
	src := video.NewSource(h.Net, video.Config{}, rand.New(rand.NewSource(cfg.Seed+100)))
	w := &videoPlayback{sources: sources{streams: src.Streams(), feeds: []interface{ Tick() }{src}}, rcv: video.NewReceiver(src)}
	// A competing bulk transfer shares the overlay (the realistic
	// deployment: video and file movement on the same paths). Under
	// proportional sharing it squeezes the video layers whenever the
	// network dips; under PGOS it only gets the leftover.
	bulk := stream.New(len(w.streams), stream.Spec{Name: "bulk", Weight: 60})
	w.add(bulk, stream.NewBacklogSource(h.Net, bulk, 4000))
	h.OnDeliver = func(_ int, pkt *simnet.Packet, _ int64) { w.rcv.OnPacket(pkt) }
	h.PostTick = func(t int64) {
		w.rcv.Tick(h.Net.Tick())
		if t%1000 == 0 && src.Frames() > 600 {
			src.Forget(src.Frames() - 600)
		}
	}
	return w
}

func (w *videoPlayback) measured() any { return w.rcv.Report() }

// videoTable renders a row per arm: frames scored, the base-layer miss
// rate, and the mean and σ of played-frame quality.
func videoTable(_ Params, results []Result) []Table {
	t := Table{Header: []string{"algorithm", "frames", "base_miss_rate", "mean_quality", "quality_stddev"}}
	for _, res := range results {
		rep := res.measured.(video.Report)
		t.Rows = append(t.Rows, []string{
			res.Algorithm, fmt.Sprintf("%d", rep.FramesScored), fmt.Sprintf("%.4f", rep.BaseMissRate),
			fmt.Sprintf("%.3f", rep.MeanQuality), fmt.Sprintf("%.4f", rep.QualityStdDev),
		})
	}
	return []Table{t}
}
