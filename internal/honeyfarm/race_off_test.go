//go:build !race

package honeyfarm

const raceEnabled = false
