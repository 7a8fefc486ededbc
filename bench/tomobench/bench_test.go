package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiment"
	"repro/internal/topology"
)

func TestSameSeedSameInputs(t *testing.T) {
	s, _ := findSpec(smokeSpecs(), "sparse_drift")
	a, err := generate(s, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(s, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.due, b.due) {
		t.Error("same seed gave different due times")
	}
	if !bytes.Equal(a.topoJSON, b.topoJSON) {
		t.Error("same seed gave different topology files")
	}
	if !reflect.DeepEqual(a.prefill, b.prefill) || !reflect.DeepEqual(a.bodies, b.bodies) {
		t.Error("same seed gave different HTTP bodies")
	}
	c, err := generate(s, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.due, c.due) || reflect.DeepEqual(a.bodies, c.bodies) {
		t.Error("another seed gave the same due times or bodies")
	}
	if !bytes.Equal(a.topoJSON, c.topoJSON) {
		t.Error("the topology is part of the workload and must not depend on the seed")
	}
	for k := 1; k < len(a.due); k++ {
		gap := a.due[k] - a.due[k-1]
		if lo, hi := s.meanGap/2, s.meanGap*3/2; gap < lo || gap > hi {
			t.Fatalf("gap %d is %v, outside [%v, %v]", k, gap, lo, hi)
		}
	}
}

func TestFederationShardsAndRoundTrip(t *testing.T) {
	const k = 3
	var members []*topology.Topology
	for seed := int64(1); seed <= k; seed++ {
		top, err := experiment.BuildTopology(experiment.Brite, experiment.Small(), seed)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, top)
	}
	fed, err := federate(members)
	if err != nil {
		t.Fatal(err)
	}
	if got := topology.NewPartition(fed).NumShards(); got != k {
		t.Errorf("federation of %d members has %d partition shards", k, got)
	}
	links, paths := 0, 0
	for _, m := range members {
		links += m.NumLinks()
		paths += m.NumPaths()
	}
	if fed.NumLinks() != links || fed.NumPaths() != paths {
		t.Errorf("federation has %d links, %d paths; members sum to %d, %d", fed.NumLinks(), fed.NumPaths(), links, paths)
	}
	var buf bytes.Buffer
	if err := fed.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := topology.ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Links, fed.Links) || !reflect.DeepEqual(back.Paths, fed.Paths) || !reflect.DeepEqual(back.CorrSets, fed.CorrSets) {
		t.Error("federation does not round-trip WriteJSON / ReadJSON")
	}
	if got := topology.NewPartition(back).NumShards(); got != k {
		t.Errorf("round-tripped federation has %d partition shards", got)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(vs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
	if vs[0] != 5 || vs[4] != 3 {
		t.Error("percentile modified its input")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestAAJudgement(t *testing.T) {
	c := aaCell{Metric: "freshness_ms_p50", Bound: 0.10, A: []float64{10, 10.1, 9.9}, B: []float64{10.5, 10.6, 10.4}}
	c.judge()
	if c.Breach || math.Abs(c.WorseBy-0.05) > 1e-9 {
		t.Errorf("5%% apart within a 10%% bound: breach=%v worseBy=%v", c.Breach, c.WorseBy)
	}
	c = aaCell{Metric: "freshness_ms_p50", Bound: 0.10, A: []float64{10, 10.1, 9.9}, B: []float64{11.5, 11.6, 11.4}}
	c.judge()
	if !c.Breach {
		t.Error("15% apart within a 10% bound must breach")
	}
	c.A, c.B = c.B, c.A // the better set second is as much a disagreement
	c.judge()
	if !c.Breach {
		t.Error("the comparison must be symmetric")
	}
	wide := []float64{8, 10, 12}
	c = aaCell{Metric: "rss_mb", Bound: 0.10, A: wide, B: wide}
	c.judge()
	if !c.Breach {
		t.Error("a spread wider than the bound must breach")
	}
	c = aaCell{Metric: "setup_s", Bound: 0.10, A: wide, B: wide}
	c.judge()
	if c.Breach {
		t.Error("setup_s is gated on medians only")
	}
}

func TestParseRecordedScrape(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := m[`tomod_http_requests_total{route="POST /v1/observations",code="200"}`]; got != 125 {
		t.Errorf("POST request counter = %v, want 125", got)
	}
	if got := m.sum("tomod_epoch_solves_total"); got != 126 {
		t.Errorf("epoch solves = %v, want 126", got)
	}
	if got := m.sum("tomod_epoch_solves_total", `path="cold"`); got != 7 {
		t.Errorf("cold solves = %v, want 7", got)
	}
	if got := m.sum("tomod_http_request_duration_seconds_count", `route="GET /v1/links/{id}"`); got != 240 {
		t.Errorf("link query count = %v, want 240", got)
	}
	if got := m.histMeanMs("tomod_http_request_duration_seconds", `route="GET /v1/links/{id}"`); got <= 0 || got > 1 {
		t.Errorf("link query mean = %v ms, want within (0, 1]", got)
	}
	if got := m["tomod_gomaxprocs"]; got != 2 {
		t.Errorf("gomaxprocs gauge = %v, want 2", got)
	}
	before := samples{"tomod_ingest_intervals_total": 200}
	if got := m.delta(before)["tomod_ingest_intervals_total"]; got != m["tomod_ingest_intervals_total"]-200 {
		t.Errorf("delta = %v", got)
	}
	if _, err := parseMetrics(strings.NewReader("tomod_x{a=\"b c\"} notanumber\n")); err == nil {
		t.Error("a non-numeric sample must be an error")
	}
}

// benchmarkFile is the contract at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	all := specs()
	if len(bf.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(all))
	}
	for i, w := range bf.Workloads {
		if w.Name != all[i].name || w.Why != all[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, harness %q / %q", i, w.Name, w.Why, all[i].name, all[i].why)
		}
	}
	if len(bf.EndToEnd) != len(e2eBounds) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(e2eBounds))
	}
	for i, m := range bf.EndToEnd {
		b := e2eBounds[i]
		if m.Name != b.name || m.Unit != b.unit || m.Bound != b.bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, b)
		}
	}
}

// TestSmoke runs every workload's daemon configuration at Small()
// scale against real tomod children — the four in parallel, to stay
// inside the test budget; the test checks correctness, not timing —
// and, for one of them, the traced run, whose metric names must be
// exactly BENCHMARK.json's per_layer list.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tomod")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer stopAllFleets()
	bf := readBenchmarkFile(t)
	o := options{seed: 1, seconds: 2, outDir: t.TempDir()}
	var wg sync.WaitGroup
	for _, s := range smokeSpecs() {
		wg.Add(1)
		go func(s spec) {
			defer wg.Done()
			r, err := runWorkload(e, s, o.seed, o.seconds)
			if err != nil {
				t.Errorf("%s: %v", s.name, err)
				return
			}
			if r.failed != 0 || r.ops == 0 {
				t.Errorf("%s: %d of %d operations failed: %v", s.name, r.failed, r.ops, r.problems)
			}
			var names []string
			for _, m := range r.e2e {
				names = append(names, m.name)
				if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", s.name, m.name, m.value)
				}
			}
			var want []string
			for _, b := range e2eBounds {
				want = append(want, b.name)
			}
			if !reflect.DeepEqual(names, want) {
				t.Errorf("%s: end-to-end metrics %v, want %v", s.name, names, want)
			}
			if s.name != "bulk_ingest" {
				return
			}
			if err := runTraced(e, s, o, r); err != nil {
				t.Errorf("%s: traced run: %v", s.name, err)
				return
			}
			if r.failed != 0 {
				t.Errorf("%s: traced run failed operations: %v", s.name, r.problems)
			}
			got := map[string]string{}
			for _, m := range r.layer {
				if _, dup := got[m.name]; dup {
					t.Errorf("per-layer metric %s reported twice", m.name)
				}
				got[m.name] = m.unit
			}
			for _, m := range bf.PerLayer {
				if unit, ok := got[m.Name]; !ok {
					t.Errorf("BENCHMARK.json per_layer metric %s is not reported", m.Name)
				} else if unit != m.Unit {
					t.Errorf("per-layer metric %s has unit %q, BENCHMARK.json says %q", m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for name := range got {
				t.Errorf("per-layer metric %s is reported but missing from BENCHMARK.json", name)
			}
			for _, m := range []string{"freshness", "ingest"} {
				want := overheadPct(r.get("trace."+m+"_ms_p50"), r.get(m+"_ms_p50"))
				if got := r.get("trace.overhead_pct." + m + "_p50"); got != want {
					t.Errorf("trace.overhead_pct.%s_p50 = %v, but the traced and untraced medians reported give %v", m, got, want)
				}
			}
			if r.get("wal.appends") == 0 || r.get("wal.write_us_per_batch") == 0 || r.get("wal.recover_ms") == 0 {
				t.Errorf("%s: the WAL layer reported no work: appends %v, write %v us, recover %v ms",
					s.name, r.get("wal.appends"), r.get("wal.write_us_per_batch"), r.get("wal.recover_ms"))
			}
		}(s)
	}
	wg.Wait()
}
