// gTPC-C on the emulated 12-region WAN: the paper's evaluation scenario
// in miniature.
//
// The program runs the gTPC-C workload (global-only, 95 % locality, 240
// closed-loop clients) on the simulated AWS deployment for all three
// protocols and prints per-destination latency percentiles, reproducing
// one row block of the paper's Table 3.
//
//	go run ./examples/gtpcc
package main

import (
	"fmt"
	"log"

	"flexcast"
)

func main() {
	fmt.Println("gTPC-C, 12 AWS regions, 95% locality, 240 clients, 10 virtual seconds")
	fmt.Println()
	fmt.Printf("%-14s | %25s | %25s | %25s\n", "protocol",
		"1st dest 90/95/99p (ms)", "2nd dest 90/95/99p (ms)", "3rd dest 90/95/99p (ms)")

	for _, p := range []flexcast.Protocol{flexcast.FlexCast, flexcast.Hierarchical, flexcast.Distributed} {
		res, err := flexcast.RunExperiment(p, flexcast.ExperimentConfig{
			Locality:   0.95,
			Clients:    240,
			GlobalOnly: true,
			Duration:   10_000_000, // 10 virtual seconds
			Seed:       42,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s |", p)
		for k := 0; k < 3; k++ {
			fmt.Printf(" %s |", res.PerDest[k].PercentileRow(1000))
		}
		fmt.Printf("  (%d tx, %.1f kops/s)\n", res.Completed, res.Throughput()/1000)
	}

	fmt.Println()
	fmt.Println("Expected shape (paper §5.6): FlexCast wins the 1st destination;")
	fmt.Println("the hierarchical protocol competes at later destinations; the")
	fmt.Println("distributed protocol pays the timestamp exchange everywhere.")
}
