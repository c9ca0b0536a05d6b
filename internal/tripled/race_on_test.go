//go:build race

package tripled

// raceEnabled reports that this test binary was built with the race
// detector, which perturbs both allocation counts and relative timings.
const raceEnabled = true
