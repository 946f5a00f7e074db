package experiment

import (
	"fmt"
	"math/rand"

	"iqpaths/internal/emulab"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
	"iqpaths/internal/video"
)

// VideoRow reports one algorithm's playback quality for the layered-video
// workload (the paper's multimedia application; the technical report
// shows "substantially improved service level QoS" for MPEG-4 FGS
// streaming under IQ-Paths).
type VideoRow struct {
	Algorithm     string
	BaseMissRate  float64
	MeanQuality   float64
	QualityStdDev float64
	FramesScored  uint64
}

// RunVideo streams a 3-layer FGS video (2 Mbps base @99 %, 4 Mbps enh1
// @95 %, 8 Mbps enh2 best-effort) over the Fig. 8 testbed under each of
// the named algorithms, scoring playback at an 8-frame playout deadline.
func RunVideo(cfg RunConfig, algorithms ...string) ([]VideoRow, error) {
	cfg.fillDefaults()
	if cfg.PaceLimit <= 0 {
		cfg.PaceLimit = 140 // interactive: shallow buffers
	}
	if len(algorithms) == 0 {
		algorithms = []string{AlgMSFQ, AlgPGOS}
	}
	var rows []VideoRow
	for _, alg := range algorithms {
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

		c := cfg
		c.Algorithm = alg
		_, err := run(c, net, fig8Paths(tb), w, hooks{
			onDeliver: func(_ int, pkt *simnet.Packet, _ int64) { rcv.OnPacket(pkt) },
			postTick: func(t int64) {
				rcv.Tick(net.Tick())
				if t%1000 == 0 && src.Frames() > 600 {
					src.Forget(src.Frames() - 600)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		rep := rcv.Report()
		rows = append(rows, VideoRow{
			Algorithm:     alg,
			BaseMissRate:  rep.BaseMissRate,
			MeanQuality:   rep.MeanQuality,
			QualityStdDev: rep.QualityStdDev,
			FramesScored:  rep.FramesScored,
		})
	}
	return rows, nil
}

// RenderVideo renders the playback-quality rows.
func RenderVideo(rows []VideoRow) Table {
	header := []string{"algorithm", "frames", "base_miss_rate", "mean_quality", "quality_stddev"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Algorithm,
			fmt.Sprintf("%d", r.FramesScored),
			fmt.Sprintf("%.4f", r.BaseMissRate),
			fmt.Sprintf("%.3f", r.MeanQuality),
			fmt.Sprintf("%.4f", r.QualityStdDev),
		})
	}
	return Table{Header: header, Rows: out}
}
