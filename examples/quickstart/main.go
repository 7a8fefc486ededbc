// Quickstart: the paper's toy topology (Fig. 1) end to end.
//
// We simulate the §3.1 example — links e2 and e3 are perfectly
// correlated (they share a router-level link), e1 and e4 congest
// independently — record which paths are congested in each interval,
// and run Congestion Probability Computation. The output shows that the
// algorithm recovers each link's congestion probability and the joint
// probability of the correlated pair, which the Independence baseline
// gets wrong.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	tomography "repro"
)

func main() {
	top := tomography.Fig1Case1()
	fmt.Printf("Topology: %d links, %d paths, correlation sets %v\n\n",
		top.NumLinks(), top.NumPaths(), top.CorrSets)

	// Ground truth for the simulation.
	const (
		p1  = 0.30 // P(e1 congested)
		p23 = 0.40 // P(e2 and e3 congested together)
		p4  = 0.20 // P(e4 congested)
		T   = 20000
	)
	rng := rand.New(rand.NewSource(42))
	rec := tomography.NewSlidingWindow(top.NumPaths(), T)
	for t := 0; t < T; t++ {
		congested := tomography.NewSet(top.NumLinks())
		if rng.Float64() < p1 {
			congested.Add(0)
		}
		if rng.Float64() < p23 { // perfectly correlated pair
			congested.Add(1)
			congested.Add(2)
		}
		if rng.Float64() < p4 {
			congested.Add(3)
		}
		// Separability: a path is congested iff it crosses a congested
		// link. (A real deployment would measure this with probes.)
		congPaths := tomography.NewSet(top.NumPaths())
		for p := 0; p < top.NumPaths(); p++ {
			if top.PathLinks(p).Intersects(congested) {
				congPaths.Add(p)
			}
		}
		rec.Add(congPaths)
	}

	// Every algorithm sits behind the same Estimator interface; pick
	// one from the registry by name.
	ctx := context.Background()
	est, err := tomography.NewEstimator("correlation-complete")
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.Estimate(ctx, top, rec, tomography.WithMaxSubsetSize(2))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Correlation-complete results (truth in parentheses):")
	names := []string{"e1", "e2", "e3", "e4"}
	truth := []float64{p1, p23, p23, p4}
	for e, name := range names {
		p, exact := res.LinkCongestProb(e)
		if !exact {
			fmt.Printf("  %s: unidentifiable (fallback estimate %.3f)\n", name, p)
			continue
		}
		fmt.Printf("  P(%s congested) = %.3f  (%.2f)\n", name, p, truth[e])
	}

	// Joint subset probabilities — the paper's primary output — are on
	// the Correlation-complete detail result.
	pair := tomography.SetOf(top.NumLinks(), 1, 2)
	joint, ok := res.Detail.CongestedProb(pair)
	if !ok {
		log.Fatal("pair {e2,e3} should be identifiable in Case 1")
	}
	fmt.Printf("\n  P(e2 AND e3 congested) = %.3f  (%.2f)\n", joint, p23)
	fmt.Printf("  under Independence it would be ≈ %.3f — wrong by ≈%.2fx\n\n",
		p23*p23, p23/(p23*p23))

	// The Independence baseline over the same data: same interface,
	// same options, different registry name.
	indepEst, err := tomography.NewEstimator("independence")
	if err != nil {
		log.Fatal(err)
	}
	indep, err := indepEst.Estimate(ctx, top, rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Independence baseline (biased by the correlation):")
	for e, name := range names {
		fmt.Printf("  P(%s congested) = %.3f  (%.2f)\n", name, indep.LinkProb[e], truth[e])
	}

	fmt.Printf("\nAll registered estimators: %v\n", tomography.Estimators())
}
