//go:build !race

package observe_test

const raceEnabled = false
