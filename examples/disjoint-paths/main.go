// Disjoint paths: the use case of §5.4 for *set* probabilities.
//
// Knowing the congestion probability of sets of links "reveals which
// links within each peer are actually correlated; this can be useful
// for computing 'disjoint' paths to some destination, i.e., paths that
// are not likely to fail at the same time."
//
// We build a dense overlay, learn pairwise joint congestion
// probabilities with Correlation-complete, and then, for pairs of paths
// to the same region, score how likely the two paths are to be
// congested simultaneously — picking the pair that minimizes joint
// failure, which is NOT always the pair with the lowest individual
// probabilities.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	tomography "repro"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	cfg := tomography.DefaultBriteConfig()
	cfg.NumAS = 25
	cfg.RoutersPerAS = 4
	top, _, err := tomography.GenerateBrite(cfg, 150, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Overlay: %d links, %d paths\n", top.NumLinks(), top.NumPaths())

	// Monitor under correlated congestion.
	const intervals = 800
	sim, err := tomography.NewSimulation(top,
		tomography.DefaultSimulationConfig(tomography.NoIndependence), intervals, rng)
	if err != nil {
		log.Fatal(err)
	}
	rec := tomography.NewSlidingWindow(top.NumPaths(), intervals)
	for t := 0; t < intervals; t++ {
		rec.Add(sim.Interval(t, rng).CongestedPaths)
	}
	est, err := tomography.NewEstimator("correlation-complete")
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), top, rec,
		tomography.WithAlwaysGoodTol(0.02))
	if err != nil {
		log.Fatal(err)
	}

	// Score path pairs: P(path A fails AND path B fails) is
	// upper-bounded by the joint congestion probability of their most
	// correlated link pair; independent links multiply, correlated
	// links don't. We approximate the pair's joint risk by the maximum
	// over cross-path link pairs of P(both congested).
	jointRisk := func(a, b int) float64 {
		worst := 0.0
		top.PathLinks(a).ForEach(func(la int) bool {
			top.PathLinks(b).ForEach(func(lb int) bool {
				if la == lb {
					worst = maxf(worst, linkProb(res, top, la))
					return true
				}
				pair := tomography.SetOf(top.NumLinks(), la, lb)
				if p, ok := res.Detail.CongestedProb(pair); ok {
					worst = maxf(worst, p)
				} else {
					// Fall back to the independent product.
					worst = maxf(worst, linkProb(res, top, la)*linkProb(res, top, lb))
				}
				return true
			})
			return true
		})
		return worst
	}

	// Pick as primary the path most at risk (it contains the link with
	// the highest estimated congestion probability): that is the path an
	// operator would actually want a backup for.
	primary, primaryRisk := 0, -1.0
	for p := 0; p < top.NumPaths(); p++ {
		worst := 0.0
		top.PathLinks(p).ForEach(func(li int) bool {
			worst = maxf(worst, linkProb(res, top, li))
			return true
		})
		if worst > primaryRisk {
			primary, primaryRisk = p, worst
		}
	}
	fmt.Printf("Most at-risk path: %s (worst-link P(congested) ≈ %.3f)\n",
		top.Paths[primary].Name, primaryRisk)

	// Find its best backup among paths with a different first hop (a
	// plausible "reroute" candidate set).
	bestBackup, bestRisk := -1, 1.1
	worstBackup, worstRisk := -1, -0.1
	for b := 0; b < top.NumPaths(); b++ {
		if b == primary || top.Paths[b].Links[0] == top.Paths[primary].Links[0] {
			continue
		}
		r := jointRisk(primary, b)
		if r < bestRisk {
			bestBackup, bestRisk = b, r
		}
		if r > worstRisk {
			worstBackup, worstRisk = b, r
		}
	}
	if bestBackup < 0 {
		log.Fatal("no backup candidates found")
	}
	fmt.Printf("\nPrimary path: %s\n", top.Paths[primary].Name)
	fmt.Printf("Best backup:  %s  (joint failure risk ≈ %.3f)\n", top.Paths[bestBackup].Name, bestRisk)
	fmt.Printf("Worst backup: %s  (joint failure risk ≈ %.3f)\n", top.Paths[worstBackup].Name, worstRisk)
	fmt.Println("\nPicking the backup by joint risk avoids pairs whose links are")
	fmt.Println("correlated inside the same peer, which marginal probabilities alone cannot see.")
}

func linkProb(res *tomography.Estimate, top *tomography.Topology, e int) float64 {
	p, _ := res.LinkCongestProb(e)
	return p
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
