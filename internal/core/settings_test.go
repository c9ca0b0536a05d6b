package core

import (
	"flag"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// studyFlags parses args through StudyFlags on a fresh flag set.
func studyFlags(extra []string, args ...string) (Config, error) {
	fs := flag.NewFlagSet("study", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	study := StudyFlags(fs, extra...)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	return study(), nil
}

// TestStudyFlags: a given flag is applied over the preset whatever its
// value and wherever -scale sits; a value of the wrong kind, an integer
// a float64 would round, an unknown preset and an opt-in flag nobody
// asked for fail the parse.
func TestStudyFlags(t *testing.T) {
	if cfg, err := studyFlags(nil); err != nil || !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Errorf("no flags: %v, want DefaultConfig", err)
	}
	cfg, err := studyFlags([]string{"months"}, "-nv", "0", "-seed", "0", "-sources", "0x10", "-months", "4", "-scale", "quick")
	want := QuickConfig()
	want.NV, want.Radiation.Seed, want.Radiation.NumSources, want.Radiation.Months = 0, 0, 16, 4
	if err != nil || !reflect.DeepEqual(cfg, want) {
		t.Errorf("given flags: %+v, %v\nwant %+v", cfg, err, want)
	}
	for _, args := range [][]string{
		{"-nv", "1.5"}, {"-nv", "many"}, {"-seed", "9007199254740993"},
		{"-scale", "huge"}, {"-months", "3"}, {"-leaf-size", "8"},
	} {
		if _, err := studyFlags(nil, args...); err == nil {
			t.Errorf("%v: parsed", args)
		}
	}
}

// TestMonthTimeInvertsMonthOf: MonthTime and MonthOf are one month
// length read both ways.
func TestMonthTimeInvertsMonthOf(t *testing.T) {
	c := DefaultConfig()
	for _, ts := range c.SnapshotTimes {
		if back := c.MonthTime(c.MonthOf(ts)); back.Sub(ts).Abs() > 1 {
			t.Errorf("MonthTime(MonthOf(%v)) = %v", ts, back)
		}
	}
}

// TestSettingKeysAreGolden: the table declares no scenario key outside
// the loader's golden list, and each key once.
func TestSettingKeysAreGolden(t *testing.T) {
	b, err := os.ReadFile("../scenario/testdata/keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Fields(string(b))
	seen := make(map[string]bool)
	for _, s := range settings {
		if !slices.Contains(golden, s.key) || seen[s.key] {
			t.Errorf("settings table key %s: not in the scenario golden, or declared twice", s.key)
		}
		seen[s.key] = true
	}
}
