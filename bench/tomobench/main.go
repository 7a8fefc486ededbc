// Command tomobench is the repository's end-to-end benchmark: it
// builds cmd/tomod, generates each workload's topology and observation
// stream from a seed, starts real tomod child processes fed only the
// generated inputs, drives a paced open-loop measured window over
// loopback from two connections, checks the served estimate against an
// offline run, and prints every metric as `workload metric value unit`.
//
//	go run -C bench ./tomobench -seed 1                 one pass over all four workloads
//	go run -C bench ./tomobench -seed 1 -trace 1        … plus the traced runs (per-layer spans)
//	go run -C bench ./tomobench -aa 3                   A/A self-test: two interleaved sets of 3 passes
//	go run -C bench ./tomobench -smoke                  small-scale pass over all four configurations
//
// With -workload the harness runs that one workload in its own process
// and ends with a single JSON line
// {"correct","attempted","failed","metrics"} — the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1 (see
// BENCHMARK.json). A pass and the A/A test start one such process per
// run. bench/README.md documents the workloads, the metrics and how
// they interact.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the one-line JSON result")
		seed     = flag.Int64("seed", 1, "picks the phase of each workload's trace the run starts at and the jitter of the arrival gaps")
		seconds  = flag.Float64("seconds", 20, "length of the measured window of each workload")
		trace    = flag.Int("trace", 0, "1: also run the traced configuration and the layer-call pass (per-layer span metrics)")
		aa       = flag.Int("aa", 0, "A/A self-test: two interleaved sets of N ≥ 3 passes, exit 1 if two medians differ, or a set spreads, by more than the metric's bound")
		smoke    = flag.Bool("smoke", false, "small-scale pass (Small() topologies, 2 s windows) over all four daemon configurations")
		outDir   = flag.String("out", "out", "directory for trace_<workload>.json and A/A reports")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tomobench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	os.Exit(run(options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		aa: *aa, smoke: *smoke, outDir: *outDir,
	}))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	aa       int
	smoke    bool
	outDir   string
}

// run is main without os.Exit, so every deferred child reaping runs.
func run(o options) (code int) {
	all := specs()
	if o.smoke {
		all = smokeSpecs()
		o.seconds = 2
	}
	if o.workload == "" { // a pass or the A/A test: one fresh harness process per run
		root, err := findRoot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tomobench: %v\n", err)
			return 1
		}
		printHeader(root, o)
		if o.aa > 0 {
			return runAA(root, all, o)
		}
		for _, s := range all {
			res, err := runFresh(o, s.name, o.seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tomobench: %v\n", err)
				return 1
			}
			if res.Failed > 0 {
				code = 1
			}
		}
		return code
	}

	// One workload in this process: the acceptance driver's mode, ending
	// with one JSON line. The daemons are killed and waited for on every
	// way out: normal return, error, panic on this goroutine,
	// SIGINT/SIGTERM.
	s, ok := findSpec(all, o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "tomobench: unknown workload %q\n", o.workload)
		return 2
	}
	defer stopAllFleets()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllFleets()
		os.Exit(130)
	}()
	e, err := newEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tomobench: %v\n", err)
		return 1
	}
	printHeader(e.root, o)
	r, err := runWorkload(e, s, o.seed, o.seconds)
	if err == nil && o.trace {
		// The traced run and layer-call pass fill in the rest of the
		// per-layer metrics; end-to-end numbers only ever come from the
		// untraced run.
		err = runTraced(e, s, o, r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tomobench: %v\n", err)
		return 1
	}
	printReport(r)
	metrics := r.e2e
	if o.trace {
		metrics = r.layer
	}
	printResultLine(r, metrics)
	if r.failed > 0 {
		return 1
	}
	return 0
}

const headerPrefix = "# tomobench "

func printHeader(root string, o options) {
	fmt.Printf(headerPrefix+"nproc=%d gomaxprocs=%d go=%s head=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitHead(root), o.seed, o.seconds)
}

// resultLine is the JSON object a single-workload run ends with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFresh runs one workload in a harness process of its own — exactly
// what the acceptance driver does — passes its metric lines through and
// returns its result line. A harness that has already driven a workload
// measures the next one differently (fed_cluster came out with 15 % less
// CPU per interval and 5 MiB more memory in half of such runs, never in
// a fresh process), so a pass and the A/A test never reuse one.
func runFresh(o options, workload string, seed int64) (resultLine, error) {
	var res resultLine
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	// A signal to this process goes on to the child, which reaps its
	// daemons and fails the run; this process then ends the usual way.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
	}()

	last := ""
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		if last = sc.Text(); strings.HasPrefix(last, headerPrefix) {
			last = ""
		}
	}
	if err := cmd.Wait(); err != nil && last == "" {
		return res, fmt.Errorf("%s: run failed: %w", workload, err)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: run ended without a result line: %w", workload, err)
	}
	return res, nil
}

// printReport prints every metric as `workload metric value unit`.
func printReport(r *report) {
	for _, m := range r.e2e {
		fmt.Printf("%s %s %.6g %s\n", r.workload, m.name, m.value, m.unit)
	}
	fmt.Printf("%s ops %d count\n", r.workload, r.ops)
	fmt.Printf("%s failed_ops %d count\n", r.workload, r.failed)
	for _, m := range r.layer {
		fmt.Printf("%s %s %.6g %s\n", r.workload, m.name, m.value, m.unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "tomobench: %s: FAILED: %s\n", r.workload, p)
	}
}

// printResultLine ends a single-workload run with the one JSON object
// the acceptance driver reads.
func printResultLine(r *report, metrics []metric) {
	out := resultLine{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		out.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}
