package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// e2eBounds is the share of the parent's median by which each
// end-to-end metric may get worse before a change is rejected. It
// mirrors BENCHMARK.json (a test holds the two together); every
// metric is lower-is-better.
var e2eBounds = []struct {
	name  string
	unit  string
	bound float64
}{
	{"setup_s", "s", 0.25},
	{"freshness_ms_p50", "ms", 0.25},
	{"freshness_ms_p90", "ms", 0.25},
	{"ingest_ms_p50", "ms", 0.25},
	{"cpu_ms_per_interval", "ms", 0.25},
	{"rss_mb", "MiB", 0.10},
	{"link_abs_err_mean", "prob", 0.05},
}

// aaCell is one metric × workload of an A/A report.
type aaCell struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Bound    float64    `json:"bound"`
	A        []float64  `json:"a"`
	B        []float64  `json:"b"`
	QA       [3]float64 `json:"a_q1_median_q3"`
	QB       [3]float64 `json:"b_q1_median_q3"`
	SpreadA  float64    `json:"a_spread"` // (Q3−Q1)/median
	SpreadB  float64    `json:"b_spread"`
	WorseBy  float64    `json:"b_worse_by"` // (median B − median A)/median A
	Breach   bool       `json:"breach"`
}

// judge fills in a cell's quartiles, spreads and verdict by the two
// rules the benchmark itself is accepted by: a cell fails when either
// set's median is worse than the other's by more than the bound — the
// comparison a later change will be held to — or when a set's own
// spread over its seeds exceeds the bound (set-up time excepted: it is
// gated on medians only).
func (c *aaCell) judge() {
	c.QA[0], c.QA[1], c.QA[2] = quartiles(c.A)
	c.QB[0], c.QB[1], c.QB[2] = quartiles(c.B)
	c.SpreadA, c.SpreadB = spread(c.A), spread(c.B)
	c.WorseBy = worseBy(c.A, c.B)
	c.Breach = c.WorseBy > c.Bound || worseBy(c.B, c.A) > c.Bound
	if c.Metric != "setup_s" && (c.SpreadA > c.Bound || c.SpreadB > c.Bound) {
		c.Breach = true
	}
}

// runAA runs two interleaved sets of o.aa passes — A B A B …, each
// pass one run of every workload in turn, so no workload ever runs
// twice back to back and slow drift of the box lands on both sets —
// and compares the sets. Pass i of either set uses seed o.seed+i.
func runAA(root string, all []spec, o options) int {
	if o.aa < 3 {
		fmt.Fprintln(os.Stderr, "tomobench: -aa needs at least 3 passes per set")
		return 2
	}
	o.trace = false // the comparison is over the end-to-end metrics
	cells := map[string]*aaCell{}
	var order []string
	failedOps := 0
	for pass := 0; pass < 2*o.aa; pass++ {
		set, seed := pass%2, o.seed+int64(pass/2)
		for _, s := range all {
			res, err := runFresh(o, s.name, seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tomobench: %v\n", err)
				return 1
			}
			failedOps += res.Failed
			for _, b := range e2eBounds {
				key := s.name + " " + b.name
				c := cells[key]
				if c == nil {
					c = &aaCell{Workload: s.name, Metric: b.name, Unit: b.unit, Bound: b.bound}
					cells[key] = c
					order = append(order, key)
				}
				if set == 0 {
					c.A = append(c.A, res.Metrics[b.name].Value)
				} else {
					c.B = append(c.B, res.Metrics[b.name].Value)
				}
			}
		}
	}
	breaches := 0
	report := struct {
		Date       string    `json:"date"`
		Head       string    `json:"head"`
		NumCPU     int       `json:"nproc"`
		GoVersion  string    `json:"go"`
		Seed       int64     `json:"seed"`
		Seconds    float64   `json:"seconds"`
		Passes     int       `json:"passes_per_set"`
		FailedOps  int       `json:"failed_ops"`
		Breaches   int       `json:"breaches"`
		Comparison []*aaCell `json:"cells"`
	}{time.Now().UTC().Format("2006-01-02"), gitHead(root), runtime.NumCPU(), runtime.Version(), o.seed, o.seconds, o.aa, failedOps, 0, nil}
	fmt.Printf("# A/A: %d passes per set; median [Q1, Q3] per set, spread = (Q3-Q1)/median\n", o.aa)
	for _, key := range order {
		c := cells[key]
		c.judge()
		verdict := "ok"
		if c.Breach {
			verdict = "BREACH"
			breaches++
		}
		fmt.Printf("aa %s %s A %.5g [%.5g, %.5g] %s spread %.1f%% | B %.5g [%.5g, %.5g] spread %.1f%% | B worse by %+.1f%% of bound %.0f%% %s\n",
			c.Workload, c.Metric, c.QA[1], c.QA[0], c.QA[2], c.Unit, 100*c.SpreadA,
			c.QB[1], c.QB[0], c.QB[2], 100*c.SpreadB, 100*c.WorseBy, 100*c.Bound, verdict)
		report.Comparison = append(report.Comparison, c)
	}
	report.Breaches = breaches
	raw, err := json.MarshalIndent(report, "", " ")
	if err == nil {
		err = os.MkdirAll(o.outDir, 0o755)
	}
	path := filepath.Join(o.outDir, "aa_"+report.Date+".json")
	if err == nil {
		err = os.WriteFile(path, raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tomobench: writing A/A report: %v\n", err)
		return 1
	}
	fmt.Printf("# A/A report written to %s: %d breaches, %d failed operations\n", path, breaches, failedOps)
	if breaches > 0 || failedOps > 0 {
		return 1
	}
	return 0
}
