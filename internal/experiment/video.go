package experiment

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/emulab"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/video"
)

// runVideo streams a 3-layer FGS video (2 Mbps base @99 %, 4 Mbps enh1
// @95 %, 8 Mbps enh2 best-effort) over the Fig. 8 testbed under each of
// the named algorithms, scoring playback at an 8-frame playout deadline —
// the paper's multimedia application, for which the technical report
// shows "substantially improved service level QoS" under IQ-Paths. A row
// per algorithm reports frames scored, the base-layer miss rate, and the
// mean and σ of played-frame quality.
func runVideo(cfg RunConfig, algorithms ...string) (Table, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		cfg.PaceLimit = 140 // interactive: shallow buffers
	}
	reports, err := sweep(cfg, algorithms, func(c *RunConfig, alg string) { c.Algorithm = alg }, videoArm)
	if err != nil {
		return Table{}, err
	}
	t := Table{Header: []string{"algorithm", "frames", "base_miss_rate", "mean_quality", "quality_stddev"}}
	for i, rep := range reports {
		t.Rows = append(t.Rows, []string{
			algorithms[i],
			fmt.Sprintf("%d", rep.FramesScored),
			fmt.Sprintf("%.4f", rep.BaseMissRate),
			fmt.Sprintf("%.3f", rep.MeanQuality),
			fmt.Sprintf("%.4f", rep.QualityStdDev),
		})
	}
	return t, nil
}

// videoArm runs the video workload under cfg.Algorithm.
func videoArm(cfg RunConfig) (video.Report, error) {
	tb := emulab.Build(emulab.Config{Seed: cfg.Seed})
	net := tb.Net
	src := video.NewSource(net, video.Config{}, rand.New(rand.NewSource(cfg.Seed+100)))
	rcv := video.NewReceiver(src)
	w := sources{streams: src.Streams(), feeds: []interface{ Tick() }{src}}
	// A competing bulk transfer shares the overlay (the realistic
	// deployment: video and file movement on the same paths). Under
	// proportional sharing it squeezes the video layers whenever the
	// network dips; under PGOS it only gets the leftover.
	bulk := stream.New(len(w.streams), stream.Spec{Name: "bulk", Weight: 60})
	w.add(bulk, stream.NewBacklogSource(net, bulk, 4000))
	_, err := run(cfg, net, fig8Paths(tb), w, hooks{
		onDeliver: func(_ int, pkt *simnet.Packet, _ int64) { rcv.OnPacket(pkt) },
		postTick: func(t int64) {
			rcv.Tick(net.Tick())
			if t%1000 == 0 && src.Frames() > 600 {
				src.Forget(src.Frames() - 600)
			}
		},
	})
	return rcv.Report(), err
}
