//go:build !race

package tripled

const raceEnabled = false
