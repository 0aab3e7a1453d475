package main

import "testing"

// TestCountsRefuseBadFlags: a negative beat count, or a -contexts no machine
// has or that disagrees with the source files, is a usage error (main exits
// 2 with the message) instead of a run at the default.
func TestCountsRefuseBadFlags(t *testing.T) {
	for _, c := range []struct {
		c     counts
		files int
		want  string
	}{
		{counts{maxCycles: -1}, 1, "-max-cycles must not be negative (got -1)"},
		{counts{quantum: -5, contexts: 2}, 1, "-quantum must not be negative (got -5)"},
		{counts{switchBeats: -3}, 1, "-switch-beats must not be negative (got -3)"},
		{counts{snapshotAt: -10}, 1, "-snapshot-at must not be negative (got -10)"},
		{counts{beats: -8}, 1, "-beats must not be negative (got -8)"},
		{counts{contexts: -1}, 1, "-contexts out of range (0-255)"},
		{counts{contexts: 256}, 1, "-contexts out of range (0-255)"},
		{counts{contexts: 3}, 2, "-contexts 3 does not match 2 source files"},
	} {
		if err := checkCounts(c.c, c.files); err == nil || err.Error() != c.want {
			t.Errorf("%+v with %d files: error %v, want %q", c.c, c.files, err, c.want)
		}
	}
	for _, c := range []counts{
		{},
		{maxCycles: 1000, quantum: 64, switchBeats: 2, contexts: 2},
		{snapshotAt: 500, beats: 8},
	} {
		if err := checkCounts(c, 1); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}
