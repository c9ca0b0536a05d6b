//go:build race

package report_test

const raceEnabled = true
