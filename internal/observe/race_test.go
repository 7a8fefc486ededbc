//go:build race

package observe_test

// raceEnabled gates the allocation-count assertion: under the race
// detector sync.Pool intentionally drops items at random, so the
// pooled-scratch queries are not allocation-free there.
const raceEnabled = true
