//go:build !race

package assoc

const raceEnabled = false
