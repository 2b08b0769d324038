// Quickstart: resize both L1 caches of the base processor for one
// benchmark with static selective-sets — the paper's headline experiment
// — and print the energy-delay outcome.
package main

import (
	"context"
	"fmt"
	"log"

	"resizecache"
)

func main() {
	out, err := resizecache.NewSession().SimulateContext(context.Background(), resizecache.Scenario{
		Benchmark:    "m88ksim",
		Organization: resizecache.SelectiveSets,
		Strategy:     resizecache.Static,
		Instructions: 800_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("m88ksim, static selective-sets, resizing both L1 caches:")
	fmt.Printf("  d-cache: %-18s avg size reduced %.1f%%\n", out.DChosen, out.DCacheSizeReductionPct)
	fmt.Printf("  i-cache: %-18s avg size reduced %.1f%%\n", out.IChosen, out.ICacheSizeReductionPct)
	fmt.Printf("  processor energy-delay reduced %.1f%% (slowdown %.1f%%)\n",
		out.EDPReductionPct, out.SlowdownPct)
}
