// GridFTP example: the paper's §6.2 climate-record transfer — DT1 numeric
// data and DT2 low-res images need 25 records/s while DT3 high-res images
// move as fast as possible — under stock GridFTP's blocked layout vs
// IQPG-GridFTP's PGOS layout, printing per-stream summaries and CDFs.
//
//	go run ./examples/gridftp
package main

import (
	"fmt"
	"log"
	"os"

	"iqpaths/internal/experiment"
	"iqpaths/internal/gridftp"
)

func main() {
	fmt.Printf("GridFTP (§6.2): DT1 %.2f Mbps, DT2 %.2f Mbps targets (25 records/s); DT3 elastic\n",
		float64(gridftp.DT1Mbps), float64(gridftp.DT2Mbps))
	fmt.Println("running blocked layout vs IQPG (PGOS) over the Fig. 8 testbed (90 s each)...")
	results, err := experiment.RunArms(experiment.RunConfig{
		Seed:        42,
		DurationSec: 90,
		WarmupSec:   60,
	}, experiment.RunGridFTP, experiment.GridFTPArms...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, res := range results {
		fmt.Printf("-- %s --\n", res.Algorithm)
		for _, s := range res.Streams {
			fmt.Printf("  %-4s mean %6.2f Mbps  σ %6.3f  sustained-95%% %6.2f\n",
				s.Name, s.Summary.Mean, s.Summary.StdDev, s.Summary.SustainedAt(0.95))
		}
	}
	fmt.Println("\nThroughput CDFs (Fig. 13):")
	if err := experiment.RenderCDFs(results).Write(os.Stdout, false); err != nil {
		log.Fatal(err)
	}
}
