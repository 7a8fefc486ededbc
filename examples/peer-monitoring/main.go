// Peer monitoring: the paper's motivating scenario (§1).
//
// A Tier-1 "source ISP" wants to know how congested each of its peers
// is, without access to their networks. It traceroutes the Internet
// from a few vantage points (building the paper's Sparse topology),
// monitors the resulting end-to-end paths over many intervals, runs
// Congestion Probability Computation, and aggregates the per-link
// results into a per-peer congestion report — the deliverable the
// paper argues is actually attainable, unlike per-interval Boolean
// Inference.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	tomography "repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// 1. Build the sparse view by tracerouting.
	cfg := tomography.DefaultTracerouteConfig()
	cfg.Internet.NumAS = 80
	cfg.Internet.RoutersPerAS = 5
	cfg.TargetPaths = 300
	campaign, err := tomography.GenerateSparse(cfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	top := campaign.Topology
	fmt.Printf("Traceroute campaign: %d probes issued, %d complete traces kept\n",
		campaign.Issued, campaign.Kept)
	fmt.Printf("Sparse AS-level view: %d links across %d correlation sets (ASes), %d paths\n\n",
		top.NumLinks(), len(top.CorrSets), top.NumPaths())

	// 2. Monitor: simulate a day of measurement intervals with
	// correlated congestion.
	const intervals = 600
	sim, err := tomography.NewSimulation(top,
		tomography.DefaultSimulationConfig(tomography.NoIndependence), intervals, rng)
	if err != nil {
		log.Fatal(err)
	}
	rec := tomography.NewSlidingWindow(top.NumPaths(), intervals)
	for t := 0; t < intervals; t++ {
		rec.Add(sim.Interval(t, rng).CongestedPaths)
	}

	// 3. Compute congestion probabilities through the unified
	// estimator API (any registered algorithm would slot in here).
	est, err := tomography.NewEstimator("correlation-complete")
	if err != nil {
		log.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), top, rec,
		tomography.WithAlwaysGoodTol(0.02))
	if err != nil {
		log.Fatal(err)
	}

	// 4. Aggregate per peer (per AS): mean link congestion probability
	// and the worst link.
	type peerReport struct {
		as        int
		links     int
		meanProb  float64
		worstProb float64
		truth     float64
	}
	byAS := map[int]*peerReport{}
	for e := 0; e < top.NumLinks(); e++ {
		as := top.Links[e].AS
		if as == campaign.SourceAS {
			continue // not a peer
		}
		r := byAS[as]
		if r == nil {
			r = &peerReport{as: as}
			byAS[as] = r
		}
		p, _ := res.LinkCongestProb(e)
		r.links++
		r.meanProb += p
		if p > r.worstProb {
			r.worstProb = p
		}
		r.truth += sim.TrueLinkProb(e)
	}
	var reports []*peerReport
	for _, r := range byAS {
		r.meanProb /= float64(r.links)
		r.truth /= float64(r.links)
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].meanProb > reports[j].meanProb })

	fmt.Println("Most congested peers (estimated over the monitoring period):")
	fmt.Printf("%-8s %7s %12s %12s %14s\n", "peer", "links", "mean P(cong)", "worst link", "true mean")
	n := 10
	if len(reports) < n {
		n = len(reports)
	}
	for _, r := range reports[:n] {
		fmt.Printf("AS%-6d %7d %12.3f %12.3f %14.3f\n", r.as, r.links, r.meanProb, r.worstProb, r.truth)
	}
}
