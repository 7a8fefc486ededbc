// Inference vs Probability: the paper's central argument, demonstrated.
//
// On a sparse ISP-view topology, per-interval Boolean Inference is not
// accurate enough to attribute blame (detection drops, false positives
// soar), while Congestion Probability Computation — an easier problem —
// remains accurate on the same data. This program runs both on one
// simulated monitoring period and prints the comparison.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	tomography "repro"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	// Sparse topology via a traceroute campaign.
	tcfg := tomography.DefaultTracerouteConfig()
	tcfg.Internet.NumAS = 70
	tcfg.Internet.RoutersPerAS = 5
	tcfg.TargetPaths = 250
	campaign, err := tomography.GenerateSparse(tcfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	top := campaign.Topology

	// One monitoring period with correlated congestion.
	const intervals = 500
	sim, err := tomography.NewSimulation(top,
		tomography.DefaultSimulationConfig(tomography.NoIndependence), intervals, rng)
	if err != nil {
		log.Fatal(err)
	}
	rec := tomography.NewSlidingWindow(top.NumPaths(), intervals)
	var truths []*tomography.Set
	var observations []*tomography.Set
	for t := 0; t < intervals; t++ {
		obs := sim.Interval(t, rng)
		rec.Add(obs.CongestedPaths)
		truths = append(truths, obs.CongestedLinks)
		observations = append(observations, obs.CongestedPaths)
	}

	// --- Boolean Inference: which links were congested *when*? ---
	ctx := context.Background()
	pcfg := tomography.DefaultProbabilityConfig()
	pcfg.AlwaysGoodTol = 0.02
	alg := tomography.NewBayesianCorrelation(pcfg)
	if err := alg.Prepare(ctx, top, rec); err != nil {
		log.Fatal(err)
	}
	var drSum, fprSum float64
	var drN, fprN int
	for t := 0; t < intervals; t++ {
		inferred := alg.Infer(observations[t])
		actual := truths[t]
		if c := actual.Count(); c > 0 {
			drSum += float64(inferred.Intersect(actual).Count()) / float64(c)
			drN++
		}
		if c := inferred.Count(); c > 0 {
			fprSum += float64(inferred.Difference(actual).Count()) / float64(c)
			fprN++
		}
	}
	fmt.Printf("Boolean Inference (%s) on the sparse view:\n", alg.Name())
	fmt.Printf("  detection rate:      %.2f\n", drSum/float64(drN))
	fmt.Printf("  false-positive rate: %.2f\n", fprSum/float64(fprN))
	fmt.Println("  -> too inaccurate to attribute blame per interval (§4)")

	// --- Probability Computation: how *often* is each link congested? ---
	// The same data, through the unified Estimator interface.
	est, err := tomography.NewEstimator("correlation-complete")
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.Estimate(ctx, top, rec, tomography.WithAlwaysGoodTol(0.02))
	if err != nil {
		log.Fatal(err)
	}
	var errSum float64
	var errN int
	var worst float64
	for e := 0; e < top.NumLinks(); e++ {
		if !res.PotentiallyCongested.Contains(e) || top.LinkPaths(e).IsEmpty() {
			continue
		}
		p, _ := res.LinkCongestProb(e)
		aerr := math.Abs(p - sim.TrueLinkProb(e))
		errSum += aerr
		errN++
		if aerr > worst {
			worst = aerr
		}
	}
	fmt.Printf("\nCongestion Probability Computation (Correlation-complete), same data:\n")
	fmt.Printf("  mean abs error of P(link congested): %.3f over %d links (max %.3f)\n",
		errSum/float64(errN), errN, worst)
	fmt.Println("  -> the long-run congestion profile of each peer is recoverable,")
	fmt.Println("     which answers the operator's actual questions (§1).")
}
