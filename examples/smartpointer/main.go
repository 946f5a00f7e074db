// SmartPointer example: the paper's §6.1 molecular-dynamics collaboration
// workload — critical Atom and Bond1 streams with 95 % guarantees, a
// best-effort Bond2 stream — compared across WFQ, MSFQ, PGOS and the
// offline-optimal OptSched, printing the Fig. 11 summary.
//
//	go run ./examples/smartpointer
package main

import (
	"fmt"
	"log"
	"os"

	"iqpaths/internal/experiment"
)

func main() {
	fmt.Println("SmartPointer (§6.1): Atom 3.249 Mbps @95%, Bond1 22.148 Mbps @95%, Bond2 best-effort")
	fmt.Println("running WFQ, MSFQ, PGOS, OptSched over the Fig. 8 testbed (90 s each)...")
	results, err := experiment.RunArms(experiment.RunConfig{
		Seed:        42,
		DurationSec: 90,
		WarmupSec:   60,
	}, experiment.RunSmartPointer, experiment.SmartPointerArms...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := experiment.RenderFig11(results, "Atom", "Bond1").Write(os.Stdout, false); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nBond2 (non-critical) mean throughput — PGOS must not sacrifice it:")
	for _, res := range results {
		fmt.Printf("  %-9s %.2f Mbps\n", res.Algorithm, res.Streams[2].Summary.Mean)
	}
	ms, pg := results[1], results[2] // SmartPointerArms: WFQ, MSFQ, PGOS, OptSched
	fmt.Printf("\nAtom frame jitter: PGOS %.2f ms vs MSFQ %.2f ms (paper: 1.4 vs 2.0)\n",
		pg.Streams[0].JitterSec()*1000, ms.Streams[0].JitterSec()*1000)
}
