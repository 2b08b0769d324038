// Sensitivity walkthrough: how the headline resizing result moves with
// the knobs the paper fixes — subarray granularity and the dynamic
// controller's interval. Both studies run as plans on one Session, so
// the baselines they share simulate once. Uses a two-app subset so it
// finishes quickly; `go run ./cmd/figures -exp sens` runs the full
// versions.
package main

import (
	"context"
	"fmt"
	"log"

	"resizecache"
	"resizecache/figures"
)

func main() {
	ctx := context.Background()
	s := resizecache.NewSession()
	opts := figures.Options{Instructions: 500_000, Apps: []string{"ammp", "vpr"}}

	rows, err := figures.SubarraySensitivity(ctx, s, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(figures.RenderSensitivity(
		"Subarray granularity (static selective-sets d-cache, ammp+vpr):", rows))
	fmt.Println("\nFiner subarrays offer smaller minimum sizes and more schedule")
	fmt.Println("points, so small-working-set apps keep gaining; coarser subarrays")
	fmt.Println("throw that opportunity away.")

	rows, err = figures.IntervalSensitivity(ctx, s, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(figures.RenderSensitivity(
		"Dynamic interval (in-order engine, d-cache, ammp+vpr):", rows))
	fmt.Println("\nShort intervals adapt fast but react to noise; long intervals")
	fmt.Println("stay oversized for whole program phases.")
}
