package estimator

import "fmt"

// Settings is the resolved option set shared by every estimator. One
// flat knob space keeps option lists portable: callers build a single
// []Option from their configuration and pass it to whichever algorithm
// the user selected; each estimator reads the knobs relevant to it and
// ignores the rest.
type Settings struct {
	// MaxSubsetSize bounds the correlation subsets Correlation-complete
	// enumerates and solves for (the paper's resource knob, §4).
	MaxSubsetSize int
	// AlwaysGoodTol is the congested-fraction tolerance under which a
	// path counts as always good.
	AlwaysGoodTol float64
	// MaxEnumPathSets caps the per-subset candidate enumeration of the
	// augmentation loop; 0 means the solver default.
	MaxEnumPathSets int
	// PairsPerLink and GlobalPairs size the Independence baseline's
	// sampled path-pair equations; 0 means the algorithm defaults.
	PairsPerLink int
	GlobalPairs  int
	// Sweeps is the Correlation-heuristic substitution sweep count;
	// 0 means the algorithm default.
	Sweeps int
	// Seed drives the random sampling of the algorithms that sample
	// (Independence's path pairs).
	Seed int64
	// NumericalPlanRepair additionally enables the tier-2 numerical
	// repair (core.Plan.RepairNumeric): frontier-moving drift patches
	// the retained factorization in place instead of rebuilding.
	// Repaired epochs are numerically — not bitwise — equivalent to the
	// rebuild they skip, which is why this is off by default.
	NumericalPlanRepair bool
	// NumericalRepairMaxFrac caps the frontier delta a tier-2 repair
	// absorbs, as a fraction of the potentially-congested link universe;
	// 0 means core.DefaultNumericalRepairMaxFrac.
	NumericalRepairMaxFrac float64
}

// DefaultSettings mirrors the configuration of the paper's experiments:
// subsets up to size two, strict always-good definition.
func DefaultSettings() Settings {
	return Settings{MaxSubsetSize: 2}
}

// Option tunes one knob of Settings, validating its argument eagerly:
// an out-of-range value surfaces as an error from Estimate (or from
// Apply) before any computation starts, never as a panic mid-solve.
type Option func(*Settings) error

// Apply resolves an option list over DefaultSettings, failing on the
// first invalid option.
func Apply(opts ...Option) (Settings, error) {
	s := DefaultSettings()
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&s); err != nil {
			return s, err
		}
	}
	return s, nil
}

// WithMaxSubsetSize bounds the enumerated correlation-subset size
// (the paper's resource knob). 0 means unbounded; negative is invalid.
func WithMaxSubsetSize(n int) Option {
	return func(s *Settings) error {
		if n < 0 {
			return fmt.Errorf("estimator: WithMaxSubsetSize(%d): size must be ≥ 0 (0 = unbounded)", n)
		}
		s.MaxSubsetSize = n
		return nil
	}
}

// WithAlwaysGoodTol sets the congested-fraction tolerance under which
// a path counts as always good; it must lie in [0, 1).
func WithAlwaysGoodTol(tol float64) Option {
	return func(s *Settings) error {
		if tol < 0 || tol >= 1 {
			return fmt.Errorf("estimator: WithAlwaysGoodTol(%v): tolerance must be in [0,1)", tol)
		}
		s.AlwaysGoodTol = tol
		return nil
	}
}

// WithMaxEnumPathSets caps the per-subset candidate path sets the
// Correlation-complete augmentation loop enumerates. 0 means the
// solver default; negative is invalid.
func WithMaxEnumPathSets(n int) Option {
	return func(s *Settings) error {
		if n < 0 {
			return fmt.Errorf("estimator: WithMaxEnumPathSets(%d): cap must be ≥ 0 (0 = default)", n)
		}
		s.MaxEnumPathSets = n
		return nil
	}
}

// WithConcurrency does nothing.
//
// Deprecated: ignored; kept until bench/ stops naming it.
func WithConcurrency(int) Option {
	return func(*Settings) error { return nil }
}

// WithPairsPerLink sets how many path pairs per link the Independence
// baseline samples. 0 means the algorithm default; negative is invalid.
func WithPairsPerLink(n int) Option {
	return func(s *Settings) error {
		if n < 0 {
			return fmt.Errorf("estimator: WithPairsPerLink(%d): count must be ≥ 0 (0 = default)", n)
		}
		s.PairsPerLink = n
		return nil
	}
}

// WithGlobalPairs sets how many uniformly random path pairs the
// Independence baseline adds. 0 means the algorithm default, -1
// disables them; other negative values are invalid.
func WithGlobalPairs(n int) Option {
	return func(s *Settings) error {
		if n < -1 {
			return fmt.Errorf("estimator: WithGlobalPairs(%d): use -1 to disable, 0 for the default, or a positive count", n)
		}
		s.GlobalPairs = n
		return nil
	}
}

// WithSweeps sets the Correlation-heuristic's substitution sweep
// count. 0 means the algorithm default; negative is invalid.
func WithSweeps(n int) Option {
	return func(s *Settings) error {
		if n < 0 {
			return fmt.Errorf("estimator: WithSweeps(%d): count must be ≥ 0 (0 = default)", n)
		}
		s.Sweeps = n
		return nil
	}
}

// WithSeed seeds the random sampling of estimators that sample.
func WithSeed(seed int64) Option {
	return func(s *Settings) error {
		s.Seed = seed
		return nil
	}
}

// WithNumericalPlanRepair enables the tier-2 numerical plan repair in
// the warm Correlation-complete solvers: drift that moves the
// good-link frontier — which tier-1 repair must reject — patches the
// retained factorization in place (core.Plan.RepairNumeric) instead of
// forcing a cold rebuild. Unlike tier-1, a tier-2-served epoch is
// numerically rather than bitwise equivalent to the rebuild it
// skipped, so this is opt-in and off by default.
func WithNumericalPlanRepair(enabled bool) Option {
	return func(s *Settings) error {
		s.NumericalPlanRepair = enabled
		return nil
	}
}

// WithNumericalRepairMaxFrac caps how large a frontier move the tier-2
// repair absorbs, as a fraction of the potentially-congested link
// universe; larger drifts rebuild cold. 0 means the solver default
// (core.DefaultNumericalRepairMaxFrac); the fraction must lie in [0, 1].
func WithNumericalRepairMaxFrac(frac float64) Option {
	return func(s *Settings) error {
		if frac < 0 || frac > 1 {
			return fmt.Errorf("estimator: WithNumericalRepairMaxFrac(%v): fraction must be in [0,1]", frac)
		}
		s.NumericalRepairMaxFrac = frac
		return nil
	}
}
