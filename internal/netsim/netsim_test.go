package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/brite"
	"repro/internal/topology"
)

func testTopology(t *testing.T, seed int64) *topology.Topology {
	t.Helper()
	cfg := brite.DefaultConfig()
	cfg.NumAS = 25
	cfg.RoutersPerAS = 4
	top, _, err := brite.DenseTopology(cfg, 120, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBinomialEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Binomial(0, 0.5, rng) != 0 {
		t.Fatal("n=0 must give 0")
	}
	if Binomial(10, 0, rng) != 0 {
		t.Fatal("p=0 must give 0")
	}
	if Binomial(10, 1, rng) != 10 {
		t.Fatal("p=1 must give n")
	}
	if Binomial(-5, 0.5, rng) != 0 {
		t.Fatal("negative n must give 0")
	}
}

func TestBinomialMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Exercise both the inversion branch (small variance) and the
	// normal-approximation branch (large variance).
	for _, tc := range []struct {
		n int
		p float64
	}{{20, 0.1}, {50, 0.5}, {400, 0.5}, {1000, 0.3}} {
		const draws = 20000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < draws; i++ {
			x := float64(Binomial(tc.n, tc.p, rng))
			if x < 0 || x > float64(tc.n) {
				t.Fatalf("n=%d p=%v: sample %v out of range", tc.n, tc.p, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / draws
		wantMean := float64(tc.n) * tc.p
		if math.Abs(mean-wantMean) > 0.05*float64(tc.n) {
			t.Errorf("n=%d p=%v: mean %v, want ≈%v", tc.n, tc.p, mean, wantMean)
		}
		variance := sumSq/draws - mean*mean
		wantVar := float64(tc.n) * tc.p * (1 - tc.p)
		if math.Abs(variance-wantVar) > 0.25*wantVar+1 {
			t.Errorf("n=%d p=%v: var %v, want ≈%v", tc.n, tc.p, variance, wantVar)
		}
	}
}

func TestQuickBinomialRange(t *testing.T) {
	f := func(seed int64, pRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := math.Mod(math.Abs(pRaw), 1)
		n := rng.Intn(500)
		x := Binomial(n, p, rng)
		return x >= 0 && x <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelCongestibleFraction(t *testing.T) {
	top := testTopology(t, 1)
	rng := rand.New(rand.NewSource(1))
	m, err := NewModel(top, DefaultConfig(RandomCongestion), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(m.CongestibleLinks().Count()) / float64(top.NumLinks())
	if frac < 0.08 || frac > 0.25 {
		t.Fatalf("congestible fraction = %.3f, want ≈0.10", frac)
	}
}

func TestModelRejectsBadConfig(t *testing.T) {
	top := testTopology(t, 2)
	rng := rand.New(rand.NewSource(1))
	bad := DefaultConfig(RandomCongestion)
	bad.CongestibleFrac = 0
	if _, err := NewModel(top, bad, 100, rng); err == nil {
		t.Fatal("CongestibleFrac=0 accepted")
	}
	bad = DefaultConfig(RandomCongestion)
	bad.PacketsPerPath = 0
	if _, err := NewModel(top, bad, 100, rng); err == nil {
		t.Fatal("PacketsPerPath=0 accepted")
	}
	bad = DefaultConfig(RandomCongestion)
	bad.LossThresholdF = 1.5
	if _, err := NewModel(top, bad, 100, rng); err == nil {
		t.Fatal("LossThresholdF=1.5 accepted")
	}
	if _, err := NewModel(top, DefaultConfig(RandomCongestion), 0, rng); err == nil {
		t.Fatal("totalIntervals=0 accepted")
	}
	weird := DefaultConfig(Scenario(42))
	if _, err := NewModel(top, weird, 100, rng); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// A topology without router links (the paper's Fig. 1 toy) gives no
// scenario anything to congest: every scenario reports it instead of
// panicking on the empty router-link list.
func TestNoRouterLinksRejected(t *testing.T) {
	top := topology.Fig1Case1()
	for _, s := range []Scenario{RandomCongestion, ConcentratedCongestion, NoIndependence} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewModel panicked: %v", s, r)
				}
			}()
			if _, err := NewModel(top, DefaultConfig(s), 10, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("%s: NewModel accepted a topology without router links", s)
			}
		}()
	}
}

func TestConcentratedPicksEdgeLinks(t *testing.T) {
	top := testTopology(t, 3)
	rng := rand.New(rand.NewSource(2))
	m, err := NewModel(top, DefaultConfig(ConcentratedCongestion), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	edge := bitset.New(top.NumLinks())
	for _, p := range top.Paths {
		edge.Add(p.Links[0])
		edge.Add(p.Links[len(p.Links)-1])
	}
	// Every congestible link must share a driver router link with some
	// edge link; the directly selected ones are edge links themselves.
	cong := m.CongestibleLinks()
	direct := 0
	cong.ForEach(func(li int) bool {
		if edge.Contains(li) {
			direct++
		}
		return true
	})
	if float64(direct) < 0.6*float64(cong.Count()) {
		t.Fatalf("only %d/%d congestible links are edge links", direct, cong.Count())
	}
}

func TestNoIndependenceAllCorrelated(t *testing.T) {
	top := testTopology(t, 4)
	rng := rand.New(rand.NewSource(3))
	m, err := NewModel(top, DefaultConfig(NoIndependence), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.CongestibleLinks().ForEach(func(li int) bool {
		if !m.CorrelatedWithAnother(li) {
			t.Errorf("congestible link %d is not correlated with any other", li)
		}
		return true
	})
}

func TestIntervalGroundTruthWithinCongestible(t *testing.T) {
	top := testTopology(t, 5)
	rng := rand.New(rand.NewSource(4))
	m, err := NewModel(top, DefaultConfig(RandomCongestion), 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	cong := m.CongestibleLinks()
	for t0 := 0; t0 < 50; t0++ {
		obs := m.Interval(t0, rng)
		if !obs.CongestedLinks.SubsetOf(cong) {
			t.Fatal("a non-congestible link congested")
		}
	}
}

func TestEmpiricalMarginalsMatchTruth(t *testing.T) {
	top := testTopology(t, 6)
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig(RandomCongestion)
	cfg.PerfectE2E = true
	const T = 4000
	m, err := NewModel(top, cfg, T, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, top.NumLinks())
	for t0 := 0; t0 < T; t0++ {
		obs := m.Interval(t0, rng)
		obs.CongestedLinks.ForEach(func(li int) bool {
			counts[li]++
			return true
		})
	}
	for li := 0; li < top.NumLinks(); li++ {
		want := m.TrueLinkProb(li)
		got := float64(counts[li]) / T
		if math.Abs(got-want) > 0.05 {
			t.Errorf("link %d: empirical %.3f vs true %.3f", li, got, want)
		}
	}
}

func TestPerfectE2EMatchesSeparability(t *testing.T) {
	top := testTopology(t, 7)
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig(NoIndependence)
	cfg.PerfectE2E = true
	m, err := NewModel(top, cfg, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for t0 := 0; t0 < 20; t0++ {
		obs := m.Interval(t0, rng)
		for pi := 0; pi < top.NumPaths(); pi++ {
			want := top.PathLinks(pi).Intersects(obs.CongestedLinks)
			if obs.CongestedPaths.Contains(pi) != want {
				t.Fatalf("interval %d path %d: separability violated", t0, pi)
			}
		}
	}
}

func TestProbingRoughlyAgreesWithTruth(t *testing.T) {
	// Probing is noisy but must agree with separability for the vast
	// majority of (interval, path) pairs.
	top := testTopology(t, 8)
	rng := rand.New(rand.NewSource(7))
	m, err := NewModel(top, DefaultConfig(RandomCongestion), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	agree, total := 0, 0
	for t0 := 0; t0 < 100; t0++ {
		obs := m.Interval(t0, rng)
		for pi := 0; pi < top.NumPaths(); pi++ {
			truth := top.PathLinks(pi).Intersects(obs.CongestedLinks)
			if obs.CongestedPaths.Contains(pi) == truth {
				agree++
			}
			total++
		}
	}
	if frac := float64(agree) / float64(total); frac < 0.85 {
		t.Fatalf("probe observations agree with separability only %.2f of the time", frac)
	}
}

func TestNonStationaryEpochs(t *testing.T) {
	top := testTopology(t, 9)
	rng := rand.New(rand.NewSource(8))
	cfg := DefaultConfig(NoIndependence)
	cfg.NonStationary = true
	cfg.RedrawEvery = 10
	const T = 95
	m, err := NewModel(top, cfg, T, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.epochs) != 10 {
		t.Fatalf("epochs = %d, want 10", len(m.epochs))
	}
	// The time-averaged marginal of a congestible link must lie within
	// the per-epoch extremes.
	li := m.CongestibleLinks().Indices()[0]
	s := bitset.New(top.NumLinks())
	s.Add(li)
	avg := m.TrueLinkProb(li)
	lo, hi := 2.0, -1.0
	for _, ps := range m.epochs {
		g := 1.0
		for _, di := range m.linkDrivers[li] {
			g *= 1 - ps[di]
		}
		p := 1 - g
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if avg < lo-1e-12 || avg > hi+1e-12 {
		t.Fatalf("time-averaged %v outside epoch range [%v, %v]", avg, lo, hi)
	}
}

func TestTrueProbIdentities(t *testing.T) {
	top := testTopology(t, 10)
	rng := rand.New(rand.NewSource(9))
	m, err := NewModel(top, DefaultConfig(NoIndependence), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	cong := m.CongestibleLinks().Indices()
	// Singleton: P(congested) + P(good) = 1.
	for _, li := range cong[:min(len(cong), 5)] {
		s := bitset.New(top.NumLinks())
		s.Add(li)
		if math.Abs(m.TrueCongestedProb(s)+m.TrueGoodProb(s)-1) > 1e-9 {
			t.Fatalf("link %d: P(c)+P(g) != 1", li)
		}
	}
	// Pair inclusion-exclusion: P(both congested) = 1 - P(a good) -
	// P(b good) + P(both good).
	if len(cong) >= 2 {
		a, b := cong[0], cong[1]
		sa := bitset.New(top.NumLinks())
		sa.Add(a)
		sb := bitset.New(top.NumLinks())
		sb.Add(b)
		sab := bitset.New(top.NumLinks())
		sab.Add(a)
		sab.Add(b)
		want := 1 - m.TrueGoodProb(sa) - m.TrueGoodProb(sb) + m.TrueGoodProb(sab)
		if math.Abs(m.TrueCongestedProb(sab)-want) > 1e-9 {
			t.Fatalf("pair inclusion-exclusion violated: %v vs %v", m.TrueCongestedProb(sab), want)
		}
	}
	// Non-congestible links are always good.
	for li := 0; li < top.NumLinks(); li++ {
		if len(m.linkDrivers[li]) == 0 {
			if m.TrueLinkProb(li) != 0 {
				t.Fatalf("non-congestible link %d has prob %v", li, m.TrueLinkProb(li))
			}
		}
	}
	// Empty set is good with probability 1.
	if m.TrueGoodProb(bitset.New(top.NumLinks())) != 1 {
		t.Fatal("P(empty set good) != 1")
	}
}

func TestCorrelatedJointDiffersFromProduct(t *testing.T) {
	// In the NoIndependence scenario there must exist a pair with
	// P(both good) != P(a good)·P(b good) — otherwise the scenario
	// would not stress the Independence assumption.
	top := testTopology(t, 11)
	rng := rand.New(rand.NewSource(10))
	m, err := NewModel(top, DefaultConfig(NoIndependence), 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	cong := m.CongestibleLinks().Indices()
	found := false
	for i := 0; i < len(cong) && !found; i++ {
		for j := i + 1; j < len(cong) && !found; j++ {
			sa := bitset.New(top.NumLinks())
			sa.Add(cong[i])
			sb := bitset.New(top.NumLinks())
			sb.Add(cong[j])
			sab := sa.Union(sb)
			joint := m.TrueGoodProb(sab)
			prod := m.TrueGoodProb(sa) * m.TrueGoodProb(sb)
			if math.Abs(joint-prod) > 0.01 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no correlated pair found in NoIndependence scenario")
	}
}
