// Command tomo regenerates the paper's evaluation artifacts: Table 2
// and every panel of Figures 3 and 4.
//
// Usage:
//
//	tomo [flags] <artifact>
//
// where artifact is one of: table2, figure3, figure4a, figure4b,
// figure4c, figure4d, all.
//
// Flags:
//
//	-scale small|medium|paper   experiment scale (default medium)
//	-seed N                     master random seed (default 1)
//	-tol F                      always-good tolerance (default 0.02)
//	-maxsubset K                Correlation-complete subset-size knob (default 2)
//	-workers N                  parallel trial workers; output is bit-identical
//	                            to serial (default 0 = all CPUs, 1 = serial)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiment"
)

func main() {
	scaleName := flag.String("scale", "medium", "experiment scale: small, medium, or paper")
	seed := flag.Int64("seed", 1, "master random seed")
	tol := flag.Float64("tol", 0.02, "always-good congested-fraction tolerance")
	maxSubset := flag.Int("maxsubset", 2, "Correlation-complete max subset size (the paper's resource knob)")
	workers := flag.Int("workers", 0, "parallel trial workers (0/-1 = all CPUs, 1 = serial); output is bit-identical to serial")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}

	var scale experiment.Scale
	switch *scaleName {
	case "small":
		scale = experiment.Small()
	case "medium":
		scale = experiment.Medium()
	case "paper":
		scale = experiment.Paper()
	default:
		fmt.Fprintf(os.Stderr, "tomo: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	cfg := experiment.Config{
		Scale:         scale,
		Seed:          *seed,
		AlwaysGoodTol: *tol,
		MaxSubsetSize: *maxSubset,
		Workers:       *workers,
	}

	artifact := flag.Arg(0)
	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "tomo: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", name, time.Since(start).Seconds())
	}

	artifacts := map[string]func() error{
		"table2": func() error {
			fmt.Print(experiment.RenderTable2())
			return nil
		},
		"figure3": func() error {
			rows, err := experiment.Figure3(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiment.RenderFigure3(rows))
			return nil
		},
		"figure4a": func() error {
			rows, err := experiment.Figure4(cfg, experiment.Brite)
			if err != nil {
				return err
			}
			fmt.Print(experiment.RenderFigure4(rows, experiment.Brite))
			return nil
		},
		"figure4b": func() error {
			rows, err := experiment.Figure4(cfg, experiment.Sparse)
			if err != nil {
				return err
			}
			fmt.Print(experiment.RenderFigure4(rows, experiment.Sparse))
			return nil
		},
		"figure4c": func() error {
			points := cdfPoints()
			curves, err := experiment.Figure4CDF(cfg, points)
			if err != nil {
				return err
			}
			fmt.Print(experiment.RenderFigure4CDF(points, curves))
			return nil
		},
		"figure4d": func() error {
			cells, err := experiment.Figure4Subsets(cfg)
			if err != nil {
				return err
			}
			fmt.Print(experiment.RenderFigure4d(cells))
			return nil
		},
	}
	if artifact == "all" {
		for _, name := range []string{"table2", "figure3", "figure4a", "figure4b", "figure4c", "figure4d"} {
			run(name, artifacts[name])
		}
		return
	}
	f, ok := artifacts[artifact]
	if !ok {
		usage()
		os.Exit(2)
	}
	run(artifact, f)
}

func cdfPoints() []float64 {
	var pts []float64
	for x := 0.0; x <= 1.0001; x += 0.05 {
		pts = append(pts, x)
	}
	return pts
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: tomo [flags] <artifact>

artifacts:
  table2     assumption matrix of the inference algorithms
  figure3    detection / false-positive rates, 5 scenarios (both panels)
  figure4a   mean abs. error of probability computation, Brite
  figure4b   mean abs. error of probability computation, Sparse
  figure4c   CDF of abs. error, No Independence, Sparse
  figure4d   link vs correlation-subset error, Correlation-complete
  all        everything above

flags:
`)
	flag.PrintDefaults()
}
