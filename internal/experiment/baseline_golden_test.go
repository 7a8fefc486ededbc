package experiment

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/netsim"
)

// baselineGolden pins, per Small cell (topology × scenario × seed), the
// bits of six estimators' per-link output: the three baselines
// (Independence, Correlation-heuristic, Bayesian-independence), then
// Correlation-complete and Figure 3's Sparsity and
// Bayesian-correlation, in that order. Each value is
// baselineFingerprint of the estimate.
var baselineGolden = map[string][6]string{
	"Brite/Random/1":          {"b241d654a18b/76", "7acdb6f18a4c/76", "2fd87eb57cab/77", "58e5f35a8949/76", "2fd87eb57cab/77", "2fd87eb57cab/77"},
	"Brite/Concentrated/1":    {"16f297b5b02a/76", "6de9ea50fe41/76", "1d5772e91ae7/77", "1e344759c201/76", "1d5772e91ae7/77", "1d5772e91ae7/77"},
	"Brite/NoIndependence/1":  {"031d44c87d27/76", "2dcf5da1e2aa/76", "243ff6c28cc4/77", "b05d4f001d37/76", "5e5ff20c776f/77", "243ff6c28cc4/77"},
	"Brite/Random/2":          {"8ffb5d5947f2/75", "3fa5df74171c/73", "00d9d3fe5eff/77", "a063c1f8292f/73", "e72fd3838697/77", "00d9d3fe5eff/77"},
	"Brite/Concentrated/2":    {"048d9500b5bd/75", "394492c13409/73", "295ec294604f/77", "ca30b497d354/73", "295ec294604f/77", "295ec294604f/77"},
	"Brite/NoIndependence/2":  {"4f509cde25d1/75", "91198a653531/73", "90379a668a39/77", "4e888f3d9df2/73", "90379a668a39/77", "90379a668a39/77"},
	"Brite/Random/3":          {"8c3568de41df/74", "927a3b67346e/74", "0afdf4cb38ed/77", "19d2c8e3765d/74", "17bbfd847258/77", "0afdf4cb38ed/77"},
	"Brite/Concentrated/3":    {"fe9cff72dfda/74", "4d00ff4c67bd/71", "cb56bd4eb814/77", "6bfcc2b951b2/71", "49404da7b7a4/77", "cb56bd4eb814/77"},
	"Brite/NoIndependence/3":  {"04f8630aaf30/74", "7299d32164fa/73", "3ab523e9ee97/77", "284fb0e55df0/73", "3ab523e9ee97/77", "3ab523e9ee97/77"},
	"Sparse/Random/1":         {"b90473c58507/154", "5bbbb57f7a96/153", "c16be9c9c308/185", "4a128325d600/122", "1f9dbb7d2ddf/185", "3bd0464b67f4/185"},
	"Sparse/Concentrated/1":   {"aaf33f94a4a0/147", "a46fd28a0e95/144", "5ce3e76cce1b/185", "4709328ccd49/120", "a49ff9781a4b/185", "cc25c971c52c/185"},
	"Sparse/NoIndependence/1": {"1c60425a73a8/153", "2cae9a69e550/154", "28072d729b11/185", "0f9cd96b13b7/135", "a96e80b543ed/185", "4d887b165574/185"},
	"Sparse/Random/2":         {"dd516897243f/158", "73877dcf3c39/165", "8ff3b900f8ee/189", "b4d37e2b8783/151", "dafe0897bc77/189", "906e3e282c0c/189"},
	"Sparse/Concentrated/2":   {"8683354f2391/120", "1fcf5e532a0d/138", "eb9b5420ad5a/189", "9ad4499cbfd3/107", "85cc7e6dce6f/189", "87bf59cade11/189"},
	"Sparse/NoIndependence/2": {"e17eadc2e9e5/142", "e4dac1cdfa8f/139", "19ae53ad01b7/189", "8c96aa8cdf9c/113", "254c7afd407a/189", "93227d5ce23a/189"},
	"Sparse/Random/3":         {"dded24426235/139", "7f1f71f288b6/145", "b6c2b2b37d92/179", "ba22ec136fc5/122", "0a04b72868fd/179", "a10680af4f2a/179"},
	"Sparse/Concentrated/3":   {"2409c16c14b2/145", "cb0d43713066/141", "591b9c60444f/179", "e2ffaaeec397/98", "47d164ac2b5e/179", "fd4173244f0f/179"},
	"Sparse/NoIndependence/3": {"0c9a0970f7c1/141", "5769449eb4ff/145", "3023798efc8c/179", "4d19a9b7194c/111", "4d8683075149/179", "4f9cbfa31726/179"},
}

// baselineFingerprint hashes each link's little-endian
// math.Float64bits(LinkProb[e]) followed by one byte for LinkExact[e],
// and reports the first 6 bytes of the digest and the exact count.
func baselineFingerprint(est *estimator.Estimate) string {
	h := sha256.New()
	exact := 0
	var buf [9]byte
	for e, p := range est.LinkProb {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p))
		buf[8] = 0
		if est.LinkExact[e] {
			buf[8] = 1
			exact++
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x/%d", h.Sum(nil)[:6], exact)
}

// TestBaselineFingerprintGolden pins the baselines bit for bit on the
// non-stationary Small cells Figure 4 runs: any change to their rows,
// their column order (the heuristic's float summation order) or their
// solve shows here as a changed fingerprint.
func TestBaselineFingerprintGolden(t *testing.T) {
	algs := []string{
		estimator.Independence, estimator.CorrelationHeuristic, estimator.BayesianIndependence,
		estimator.CorrelationComplete, estimator.Sparsity, estimator.BayesianCorrelation,
	}
	scens := []netsim.Scenario{netsim.RandomCongestion, netsim.ConcentratedCongestion, netsim.NoIndependence}
	for _, kind := range []TopologyKind{Brite, Sparse} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := DefaultConfig(Small())
			cfg.Seed = seed
			top, err := BuildTopology(kind, cfg.Scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, scen := range scens {
				cell := fmt.Sprintf("%s/%s/%d", kind, scenName(scen), seed)
				run, err := runSim(cfg, top, scen, true, seed)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				var got [6]string
				for i, name := range algs {
					est, err := estimator.New(name)
					if err != nil {
						t.Fatal(err)
					}
					res, err := est.Estimate(context.Background(), run.top, run.rec, cfg.estimatorOptions()...)
					if err != nil {
						t.Fatalf("%s %s: %v", cell, name, err)
					}
					got[i] = baselineFingerprint(res)
				}
				if want := baselineGolden[cell]; got != want {
					t.Errorf("%q: %q, want %q", cell, got, want)
				}
			}
		}
	}
}

// scenName is the short scenario label of a golden cell.
func scenName(s netsim.Scenario) string {
	switch s {
	case netsim.RandomCongestion:
		return "Random"
	case netsim.ConcentratedCongestion:
		return "Concentrated"
	default:
		return "NoIndependence"
	}
}
